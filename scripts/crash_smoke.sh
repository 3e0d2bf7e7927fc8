#!/usr/bin/env bash
# crash_smoke.sh — end-to-end down-and-back smoke test of the durable
# swappd (DESIGN.md §10.7), for both ways a replica stops: build swappd, then
#
#   1. run two control jobs (two targets) on a plain in-memory instance and
#      keep their result bytes as the references, following the first one's
#      event stream (GET /v1/jobs/{id}/events) to its one event, "done",
#   2. start a replica with -data-dir, submit the same job, wait until it is
#      running with its submission in the WAL (a cold BT-MZ.D@128 job is
#      ~0.5 s on two cores — enough to catch, where BT-MZ.C@64, ~0.2 s now
#      that a gather's IMB tables measure only what a projection reads,
#      finishes between two polls), and SIGKILL the process — no drain, no
#      flush, the real crash case,
#   3. restart swappd on the same data dir and require the journal replay
#      to resurrect the job under its original ID (jobs.recovered >= 1),
#      re-run it from its journalled payload, and finish with a result
#      document byte-identical to the control run,
#   4. submit the second job (another base and target, so every table and
#      profile it needs is cold: ~0.6 s, where a second target alone is
#      ~0.2 s and can finish between two polls) and SIGTERM the replica
#      while it is running: the drain must
#      exit 0 well inside -grace without waiting for the job,
#   5. restart once more: the same job ID must finish done, byte-identical
#      to its control — the same way back as after the kill -9. A restart
#      is a cold start (the data dir holds only the journal), so the
#      printed time of the first job's request on this process is a cold
#      time. The times are printed.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
pid=""
cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/swappd" ./cmd/swappd

# The jobs: real cold projections; each identical across all its runs.
req='{"target":"power6-575","bench":"BT-MZ","class":"D","ranks":128}'
job="{\"op\":\"project\",\"request\":$req}"
job2='{"op":"project","request":{"base":"westmere-x5670","target":"bgp","bench":"BT-MZ","class":"D","ranks":128}}'

start_daemon() { # start_daemon <logname> [extra swappd args...]
    local log=$1; shift
    "$tmp/swappd" -addr 127.0.0.1:0 "$@" >"$tmp/$log.out" 2>"$tmp/$log.err" &
    pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^swappd listening on //p' "$tmp/$log.out")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "crash-smoke: swappd ($log) never reported its address" >&2
        cat "$tmp/$log.err" >&2
        exit 1
    fi
}

metric() { # metric <counters|gauges> <name> -> integer value (0 when absent)
    curl -fsS -m 5 "http://$addr/debug/vars" 2>/dev/null | python3 -c '
import json, sys
doc = json.load(sys.stdin)
for m in doc.get("swapp.metrics", {}).get(sys.argv[1], []):
    if m["name"] == sys.argv[2]:
        print(int(m["value"])); break
else:
    print(0)
' "$1" "$2" || echo 0
}

submit_job() { # submit_job [body] -> job id on stdout; no interpreter start-up
    # either: a cold job runs for a few tenths of a second, and await_running's
    # first poll must come well inside them
    curl -fsS -m 10 -X POST "http://$addr/v1/jobs" -d "${1:-$job}" |
        grep -o '"id":"[^"]*"' | head -1 | cut -d'"' -f4
}

job_state() { # job_state <id> — no interpreter start-up: await_running polls it
    curl -fsS -m 5 "http://$addr/v1/jobs/$1" | grep -o '"state":"[a-z]*"' | head -1 | cut -d'"' -f4
}

wait_done() { # wait_done <id> <tries>
    local state=""
    for _ in $(seq 1 "$2"); do
        state=$(job_state "$1")
        case "$state" in
        done) return 0 ;;
        failed)
            echo "crash-smoke: job $1 ended as '$state', want done" >&2
            return 1
            ;;
        esac
        sleep 0.2
    done
    echo "crash-smoke: job $1 still '$state' after $2 polls" >&2
    return 1
}

now_ms() { date +%s%3N; }

# await_running <id>: poll until the job is running with its submission in
# the journal, so the signal that follows lands mid-flight. Once the
# submission is journalled a poll reads only the state, and the caller
# signals right after the read that saw it running: a cold job runs for a
# few tenths of a second, a few polls.
await_running() {
    local state="" records=0
    for _ in $(seq 1 500); do
        [ "$records" -ge 1 ] || records=$(metric counters durable.wal_records)
        state=$(job_state "$1")
        [ "$state" != queued ] && [ "$records" -ge 1 ] && break
        sleep 0.01
    done
    [ "$state" = running ] && [ "$records" -ge 1 ] || {
        echo "crash-smoke: job $1 is '$state' with $records journal record(s); want running with >= 1 to stop it mid-flight" >&2
        exit 1
    }
    echo "$records"
}

# --- Control: the same jobs, uninterrupted, in memory ----------------------
start_daemon control
ctrl_id=$(submit_job)
# The event stream holds one event, written when the job ends: "done" with
# the state it ended in.
curl -fsS -N -m 120 "http://$addr/v1/jobs/$ctrl_id/events" -o "$tmp/control.events"
if [ "$(grep -c '^event:' "$tmp/control.events")" -ne 1 ] ||
    [ "$(grep -A1 '^event:' "$tmp/control.events")" != $'event: done\ndata: {"type":"done","state":"done"}' ]; then
    echo "crash-smoke: control job's event stream is not one done event with state done:" >&2
    cat "$tmp/control.events" >&2
    exit 1
fi
wait_done "$ctrl_id" 1
echo "crash-smoke: control job's event stream is its one done event"
curl -fsS -m 10 "http://$addr/v1/jobs/$ctrl_id/result" -o "$tmp/control.json"
ctrl2_id=$(submit_job "$job2")
wait_done "$ctrl2_id" 300
curl -fsS -m 10 "http://$addr/v1/jobs/$ctrl2_id/result" -o "$tmp/control2.json"
kill -TERM "$pid" && wait "$pid" || {
    echo "crash-smoke: control drain exited non-zero" >&2
    exit 1
}
pid=""
echo "crash-smoke: control result captured ($(wc -c <"$tmp/control.json") bytes)"

# --- Crash: durable replica, killed mid-job ---------------------------------
start_daemon crash -data-dir "$tmp/data"
crash_id=$(submit_job)
records=$(await_running "$crash_id")
kill -KILL "$pid"
wait "$pid" 2>/dev/null || true
pid=""
echo "crash-smoke: SIGKILLed mid-job with $records journal record(s)"

# --- Recovery: same data dir ------------------------------------------------
start_daemon recover -data-dir "$tmp/data"
recovered=$(metric counters jobs.recovered)
[ "$recovered" -ge 1 ] || {
    echo "crash-smoke: jobs.recovered = $recovered, want >= 1" >&2
    cat "$tmp/recover.err" >&2
    exit 1
}
state=$(job_state "$crash_id") || {
    echo "crash-smoke: recovered daemon does not know job $crash_id" >&2
    exit 1
}
echo "crash-smoke: job $crash_id resurrected from the journal (state: $state)"
wait_done "$crash_id" 300
curl -fsS -m 10 "http://$addr/v1/jobs/$crash_id/result" -o "$tmp/recovered.json"
cmp -s "$tmp/control.json" "$tmp/recovered.json" || {
    echo "crash-smoke: recovered result differs from the uninterrupted control" >&2
    diff <(head -c 400 "$tmp/control.json") <(head -c 400 "$tmp/recovered.json") >&2 || true
    exit 1
}
echo "crash-smoke: kill -9 arc ok (journal replay, same ID re-run, byte-identical result)"

# --- SIGTERM mid-job: the same way down, minus the violence ----------------
term_id=$(submit_job "$job2")
await_running "$term_id" >/dev/null
t0=$(now_ms)
kill -TERM "$pid" && wait "$pid" || {
    echo "crash-smoke: SIGTERM drain with a job running exited non-zero" >&2
    cat "$tmp/recover.err" >&2
    exit 1
}
pid=""
drain_ms=$(($(now_ms) - t0))
[ "$drain_ms" -lt 10000 ] || {
    echo "crash-smoke: drain took ${drain_ms} ms; it must not wait for the running job" >&2
    exit 1
}
echo "crash-smoke: SIGTERMed with job $term_id running; drained and exited 0 in ${drain_ms} ms"

# --- And the same way back ---------------------------------------------------
t0=$(now_ms)
start_daemon restart -data-dir "$tmp/data"
recovered=$(metric counters jobs.recovered)
[ "$recovered" -ge 1 ] || {
    echo "crash-smoke: after SIGTERM, jobs.recovered = $recovered, want >= 1" >&2
    cat "$tmp/restart.err" >&2
    exit 1
}
wait_done "$term_id" 300
echo "crash-smoke: job $term_id re-run after SIGTERM: restart to done in $(($(now_ms) - t0)) ms"
curl -fsS -m 10 "http://$addr/v1/jobs/$term_id/result" -o "$tmp/restarted.json"
cmp -s "$tmp/control2.json" "$tmp/restarted.json" || {
    echo "crash-smoke: result after SIGTERM and restart differs from the uninterrupted control" >&2
    exit 1
}
# The first job's request, on this process for the first time: its
# power6-575 tables were never built here, so this is a cold request.
t0=$(now_ms)
curl -fsS -m 60 -X POST "http://$addr/v1/project" -d "$req" -o /dev/null
echo "crash-smoke: first /v1/project of the first job's request on this start (cold): $(($(now_ms) - t0)) ms"
kill -TERM "$pid" && wait "$pid" || {
    echo "crash-smoke: final drain exited non-zero" >&2
    exit 1
}
pid=""
echo "crash-smoke: ok (kill -9 and SIGTERM mid-job: same ID re-run, byte-identical results)"
