#!/usr/bin/env bash
# crash_smoke.sh — end-to-end kill -9 recovery smoke test of the durable
# swappd (DESIGN.md §17): build swappd, then
#
#   1. run a control job on a plain in-memory instance and keep its result
#      bytes as the reference,
#   2. start a replica with -data-dir, submit the same job, wait until it is
#      running with its submission in the WAL (a cold BT-MZ.C@64 job is
#      seconds of characterisation — plenty to catch, where the 0.2 s
#      LU-MZ.C@16 finishes between two polls), and SIGKILL the process —
#      no drain, no flush, the real crash case,
#   3. restart swappd on the same data dir and require the journal replay
#      to resurrect the job under its original ID (jobs.recovered >= 1),
#      re-run it from its journalled payload, and finish with a result
#      document byte-identical to the control run.
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

# The job: a real cold projection; identical across all three runs.
job='{"op":"project","request":{"target":"power6-575","bench":"BT-MZ","class":"C","ranks":64}}'

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

submit_job() { # -> job id on stdout
    curl -fsS -m 10 -X POST "http://$addr/v1/jobs" -d "$job" |
        python3 -c 'import json, sys; print(json.load(sys.stdin)["id"])'
}

job_state() { # job_state <id>
    curl -fsS -m 5 "http://$addr/v1/jobs/$1" |
        python3 -c 'import json, sys; print(json.load(sys.stdin)["state"])'
}

wait_done() { # wait_done <id> <tries>
    local state=""
    for _ in $(seq 1 "$2"); do
        state=$(job_state "$1")
        case "$state" in
        done) return 0 ;;
        failed | cancelled | handed_off)
            echo "crash-smoke: job $1 ended as '$state', want done" >&2
            return 1
            ;;
        esac
        sleep 0.2
    done
    echo "crash-smoke: job $1 still '$state' after $2 polls" >&2
    return 1
}

# --- Control: the same job, uninterrupted, in memory -----------------------
start_daemon control
ctrl_id=$(submit_job)
wait_done "$ctrl_id" 300
curl -fsS -m 10 "http://$addr/v1/jobs/$ctrl_id/result" -o "$tmp/control.json"
kill -TERM "$pid" && wait "$pid" || {
    echo "crash-smoke: control drain exited non-zero" >&2
    exit 1
}
pid=""
echo "crash-smoke: control result captured ($(wc -c <"$tmp/control.json") bytes)"

# --- Crash: durable replica, killed mid-job ---------------------------------
start_daemon crash -data-dir "$tmp/data"
crash_id=$(submit_job)

# Wait until the job is running and its submission is in the journal.
state="" records=0
for _ in $(seq 1 100); do
    state=$(job_state "$crash_id")
    records=$(metric counters durable.wal_records)
    [ "$state" != queued ] && [ "$records" -ge 1 ] && break
    sleep 0.05
done
[ "$state" = running ] && [ "$records" -ge 1 ] || {
    echo "crash-smoke: job is '$state' with $records journal record(s); want running with >= 1 to kill it mid-flight" >&2
    exit 1
}
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
kill -TERM "$pid" && wait "$pid" || {
    echo "crash-smoke: recovery drain exited non-zero" >&2
    exit 1
}
pid=""
echo "crash-smoke: ok (kill -9 mid-job, journal replay, same ID re-run, byte-identical result)"
