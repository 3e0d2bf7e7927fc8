#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of swappd's peer-aware mode: the
# preference walk past a dead replica, which recomputes what it held
# (DESIGN.md §10.3). Build swappd, start three replicas wired to each other
# (rendezvous-hash routing), run a grouped /v1/batch round-trip through one node,
# then:
#
#   1. compute one result on its group's owner (found via X-Swapp-Peer),
#   2. SIGKILL that owner and, at once, require both survivors to answer its
#      exact bytes by recomputation — the first ask an X-Cache: miss, every
#      one after it a hit, each cmp-equal to the pre-kill body,
#   3. re-run the grouped batch on a survivor, byte-identical to the
#      healthy run,
#   4. open the survivor's breaker for the dead owner with three fresh keys
#      of its group (each answered all the same), restart the killed
#      replica and poll until a fresh key is answered by it again
#      (X-Swapp-Peer) — the breaker's probe, within its 5 s cooldown, no
#      restarts elsewhere,
#   5. drain everything with SIGTERM and require clean exits.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
pids=()
reserve=()
cleanup() {
    for pid in "${pids[@]:-}" "${reserve[@]:-}"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/swappd" ./cmd/swappd

# Peer-aware mode needs every replica's address up front, so reserve three
# free ports before starting anything: start swappd on :0 three times, read
# the ports it reports and stop it again (bind-then-close; the race window
# is harmless on a loopback smoke box).
for k in 1 2 3; do
    "$tmp/swappd" -addr 127.0.0.1:0 >"$tmp/port$k.log" 2>/dev/null &
    reserve+=($!)
done
ports=("")
for k in 1 2 3; do
    port=""
    for _ in $(seq 1 100); do
        port=$(sed -n 's/^swappd listening on 127\.0\.0\.1://p' "$tmp/port$k.log")
        [ -n "$port" ] && break
        sleep 0.1
    done
    [ -n "$port" ] || { echo "cluster-smoke: swappd reported no free port" >&2; exit 1; }
    ports+=("$port")
done
kill -TERM "${reserve[@]}"
wait "${reserve[@]}" 2>/dev/null || true
reserve=()
p1=${ports[1]}; p2=${ports[2]}; p3=${ports[3]}
u1="http://127.0.0.1:$p1"; u2="http://127.0.0.1:$p2"; u3="http://127.0.0.1:$p3"
urls=("" "$u1" "$u2" "$u3")

start_replica() { # start_replica <index>
    local i=$1 port=${ports[$1]} peers=""
    for k in 1 2 3; do
        [ "$k" = "$i" ] && continue
        peers="${peers:+$peers,}${urls[$k]}"
    done
    "$tmp/swappd" -addr "127.0.0.1:$port" -self "${urls[$i]}" -peers "$peers" \
        >"$tmp/out$i.log" 2>"$tmp/err$i.log" &
    pids[$i]=$!
}
# wait_for bounds every polling loop in this script: re-run a predicate
# command at 10Hz until it succeeds or the budget runs out, then fail with
# a message naming what never happened — a CI hang becomes a diagnosis.
wait_for() { # wait_for <tries> <what> <cmd...>
    local tries=$1 what=$2
    shift 2
    for _ in $(seq 1 "$tries"); do
        "$@" && return 0
        sleep 0.1
    done
    echo "cluster-smoke: timeout waiting for $what" >&2
    return 1
}
healthy() { curl -fsS -m 5 "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; }
wait_healthy() { # wait_healthy <port>
    wait_for 100 "replica on port $1 to become healthy" healthy "$1"
}
metric() { # metric <base-url> <counters|gauges> <name> -> integer value (0 when absent)
    # Read from /metrics, the replica's text snapshot: a "<section>:" line,
    # then one indented "<name> <value>" line per metric.
    { curl -fsS -m 5 "$1/metrics" 2>/dev/null || true; } |
        awk -v sec="$2:" -v name="$3" '
            /^[a-z]/ { in_sec = ($1 == sec) }
            in_sec && $1 == name { printf "%d\n", $2; found = 1; exit }
            END { if (!found) print 0 }'
}

start_replica 1; start_replica 2; start_replica 3
wait_healthy "$p1"; wait_healthy "$p2"; wait_healthy "$p3"
echo "cluster-smoke: 3 replicas up ($u1 $u2 $u3)"

# Four requests hashing to two (base, target) groups: the batch endpoint
# must dedupe the characterisation work per group and route each group to
# its owner.
batch='{"requests":[
  {"target":"power6-575","bench":"BT-MZ","class":"C","ranks":16},
  {"target":"power6-575","bench":"SP-MZ","class":"C","ranks":16},
  {"target":"bgp","bench":"BT-MZ","class":"C","ranks":16},
  {"target":"bgp","bench":"LU-MZ","class":"C","ranks":16}]}'

check_batch() { # check_batch <body-file>: four entries, each a 200, in two groups
    # The assembler writes each entry as {"index":N,"status":S,... and ends
    # the document with ],"groups":G}.
    local entries
    entries=$(grep -o '{"index":[0-9]*,"status":[0-9]*' "$1" | tr '\n' ' ')
    [ "$entries" = '{"index":0,"status":200 {"index":1,"status":200 {"index":2,"status":200 {"index":3,"status":200 ' ] || {
        echo "cluster-smoke: batch entries are [$entries], want indexes 0-3, each status 200" >&2; exit 1; }
    grep -q '\],"groups":2}$' "$1" || {
        echo "cluster-smoke: batch reply is not in 2 groups: $(tail -c 40 "$1")" >&2; exit 1; }
}

curl -fsS -m 120 -X POST "$u1/v1/batch" -d "$batch" -o "$tmp/batch1.json"
check_batch "$tmp/batch1.json"
echo "cluster-smoke: grouped batch round-trip ok"

# --- Failover --------------------------------------------------------------
# Compute one result through replica 1; X-Swapp-Peer names the owner when
# the request was forwarded, silence means replica 1 owns the group itself.
req='{"target":"westmere-x5670","bench":"BT-MZ","class":"C","ranks":16}'
curl -fsS -m 120 -D "$tmp/warm.hdr" -X POST "$u1/v1/project" -d "$req" -o "$tmp/warm.json"
owner_url=$(awk 'tolower($1)=="x-swapp-peer:"{print $2}' "$tmp/warm.hdr" | tr -d '\r')
owner_url=${owner_url:-$u1}
owner=0
for k in 1 2 3; do [ "${urls[$k]}" = "$owner_url" ] && owner=$k; done
[ "$owner" != 0 ] || { echo "cluster-smoke: unrecognised owner $owner_url" >&2; exit 1; }
survivors=()
for k in 1 2 3; do [ "$k" != "$owner" ] && survivors+=("$k"); done
echo "cluster-smoke: warm result computed on replica $owner"

# SIGKILL the owner — no drain, the crash case.
kill -KILL "${pids[$owner]}"
wait "${pids[$owner]}" 2>/dev/null || true
pids[$owner]=""

# Every surviving entry point must answer the warm request right away with
# the dead owner's exact bytes. Nobody else holds them: the first ask is
# recomputed where the walk past the refused connection lands (X-Cache:
# miss), and from then on that node's LRU answers, at either entry point.
ask_survivor() { # ask_survivor <index> <want X-Cache>
    curl -fsS -m 120 -D "$tmp/fo.hdr" -X POST "${urls[$1]}/v1/project" -d "$req" -o "$tmp/fo.json"
    cmp -s "$tmp/warm.json" "$tmp/fo.json" || {
        echo "cluster-smoke: replica $1 served different bytes than the dead owner" >&2; exit 1; }
    grep -qi "^x-cache: $2" "$tmp/fo.hdr" || {
        echo "cluster-smoke: replica $1 response not marked X-Cache: $2" >&2
        cat "$tmp/fo.hdr" >&2; exit 1; }
}
ask_survivor "${survivors[0]}" miss
ask_survivor "${survivors[0]}" hit
ask_survivor "${survivors[1]}" hit
echo "cluster-smoke: both survivors answer the dead owner's bytes (one recomputation, then hits)"

# The grouped batch still answers byte-identically through a survivor.
s1=${survivors[0]}
curl -fsS -m 120 -X POST "${urls[$s1]}/v1/batch" -d "$batch" -o "$tmp/batch2.json"
check_batch "$tmp/batch2.json"
cmp -s "$tmp/batch1.json" "$tmp/batch2.json" || {
    echo "cluster-smoke: failover batch differs from the healthy one" >&2; exit 1; }
echo "cluster-smoke: survivor answered the batch byte-identically after the crash"

# Fresh keys of the dead owner's group, asked at a survivor: each is a
# failed forward that walks on (the successor computes it, or the survivor
# itself when it is the successor), and three of them open the survivor's
# breaker for the owner. A key differs only in its rank count, from 2 up.
ranks=1
ask_fresh() { # one fresh key of the owner's group at survivor s1; headers in $tmp/fresh.hdr
    ranks=$((ranks + 1))
    curl -fsS -m 120 -D "$tmp/fresh.hdr" -o /dev/null -X POST "${urls[$s1]}/v1/project" \
        -d "{\"target\":\"westmere-x5670\",\"bench\":\"SP-MZ\",\"class\":\"C\",\"ranks\":$ranks}"
}
for _ in 1 2 3; do
    ask_fresh || { echo "cluster-smoke: a fresh key of the dead owner's group failed at replica $s1" >&2; exit 1; }
done
fallbacks=$(metric "${urls[$s1]}" counters cluster.fallbacks)
[ "$fallbacks" -ge 3 ] || { echo "cluster-smoke: cluster.fallbacks = $fallbacks at replica $s1, want >= 3" >&2; exit 1; }
echo "cluster-smoke: replica $s1 walked past the dead owner (fallbacks=$fallbacks)"

# Rejoin: restart the crashed owner — no restarts elsewhere, no operator
# action — and keep asking until a fresh key is answered by the owner again.
# The survivor's breaker for the owner is open; its one probe after the 5 s
# cooldown is one of these requests.
start_replica "$owner"
wait_healthy "${ports[$owner]}"
forwarded_to_owner() {
    ask_fresh || return 1
    [ "$(awk 'tolower($1)=="x-swapp-peer:"{print $2}' "$tmp/fresh.hdr" | tr -d '\r')" = "$owner_url" ]
}
wait_for 100 "replica $s1 to forward the owner's group to the restarted owner again (X-Swapp-Peer: $owner_url)" forwarded_to_owner
echo "cluster-smoke: replica $s1 forwards to the restarted owner again (after $((ranks - 1)) requests)"
curl -fsS -m 120 -X POST "$u1/v1/batch" -d "$batch" -o "$tmp/batch3.json"
check_batch "$tmp/batch3.json"
cmp -s "$tmp/batch1.json" "$tmp/batch3.json" || {
    echo "cluster-smoke: post-rejoin batch differs from the healthy one" >&2; exit 1; }
echo "cluster-smoke: post-rejoin batch ok"

# Clean drain everywhere.
for i in 1 2 3; do
    kill -TERM "${pids[$i]}"
done
for i in 1 2 3; do
    wait "${pids[$i]}" || { echo "cluster-smoke: replica $i drain exited non-zero" >&2; exit 1; }
    pids[$i]=""
    grep -q drained "$tmp/err$i.log" || {
        echo "cluster-smoke: replica $i missing drain log" >&2; exit 1; }
done
echo "cluster-smoke: ok (routing, failover walk, recompute past a dead owner, rejoin, clean drain)"
