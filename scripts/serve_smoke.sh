#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the swappd projection service:
# build it, start it on a free port, check /healthz, run one real
# /v1/project round-trip twice, assert the second answer comes from the
# cache with an identical body, ask /v1/validate and /v1/surrogate once
# each for the same request, read /metrics.json, then drain with SIGTERM
# and require a clean exit.
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
"$tmp/swappd" -addr 127.0.0.1:0 >"$tmp/out.log" 2>"$tmp/err.log" &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^swappd listening on //p' "$tmp/out.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-smoke: swappd never reported its address" >&2
    cat "$tmp/err.log" >&2
    exit 1
fi
echo "serve-smoke: swappd on $addr"

curl -fsS "http://$addr/healthz" >/dev/null
curl -fsS "http://$addr/readyz" >/dev/null

req='{"target":"power6-575","bench":"LU-MZ","class":"C","ranks":16}'
curl -fsS -X POST "http://$addr/v1/project" -d "$req" \
    -o "$tmp/first.json" -D "$tmp/first.hdr"
grep -qi '^x-cache: miss' "$tmp/first.hdr" || {
    echo "serve-smoke: first request was not a cache miss" >&2; exit 1; }
grep -q '"total_seconds"' "$tmp/first.json" || {
    echo "serve-smoke: response is not a projection" >&2; exit 1; }

curl -fsS -X POST "http://$addr/v1/project" -d "$req" \
    -o "$tmp/second.json" -D "$tmp/second.hdr"
grep -qi '^x-cache: hit' "$tmp/second.hdr" || {
    echo "serve-smoke: second request was not a cache hit" >&2; exit 1; }
cmp -s "$tmp/first.json" "$tmp/second.json" || {
    echo "serve-smoke: cached body differs from the original" >&2; exit 1; }

# The other two evaluation endpoints on the same request: /v1/validate adds
# the measured run on the target, /v1/surrogate is the projection's Eq. 2
# compute section alone (it shares /v1/project's cache entry).
curl -fsS -X POST "http://$addr/v1/validate" -d "$req" -o "$tmp/validate.json"
grep -q '"measured_total_seconds"' "$tmp/validate.json" || {
    echo "serve-smoke: /v1/validate response carries no measured run" >&2; exit 1; }
curl -fsS -X POST "http://$addr/v1/surrogate" -d "$req" -o "$tmp/surrogate.json"
grep -q '"speedup_ratio"' "$tmp/surrogate.json" && ! grep -q '"total_seconds"' "$tmp/surrogate.json" || {
    echo "serve-smoke: /v1/surrogate response is not the compute section alone" >&2; exit 1; }
curl -fsS "http://$addr/metrics.json" -o "$tmp/metrics.json"
grep -q '"server.cache.result_hits"' "$tmp/metrics.json" || {
    echo "serve-smoke: /metrics.json does not count the cache hit" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "serve-smoke: drain exited non-zero" >&2; exit 1; }
pid=""
grep -q drained "$tmp/err.log" || {
    echo "serve-smoke: missing drain log" >&2; exit 1; }
echo "serve-smoke: ok (cached round-trip, validate, surrogate, metrics + clean drain)"

# Second act: fault injection. Restart with one armed evaluation panic;
# the first request must 500 without killing the daemon, health must stay
# green, and the identical retry must evaluate normally.
"$tmp/swappd" -addr 127.0.0.1:0 -faults 'server.eval=panic#1' \
    >"$tmp/out2.log" 2>"$tmp/err2.log" &
pid=$!

addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^swappd listening on //p' "$tmp/out2.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-smoke: faulted swappd never reported its address" >&2
    cat "$tmp/err2.log" >&2
    exit 1
fi
echo "serve-smoke: faulted swappd on $addr"
grep -q 'FAULT INJECTION ARMED' "$tmp/err2.log" || {
    echo "serve-smoke: missing armed warning on stderr" >&2; exit 1; }

status=$(curl -sS -o "$tmp/fault.json" -w '%{http_code}' \
    -X POST "http://$addr/v1/project" -d "$req")
[ "$status" = 500 ] || {
    echo "serve-smoke: injected panic returned $status, want 500" >&2; exit 1; }
grep -qi panic "$tmp/fault.json" || {
    echo "serve-smoke: 500 body does not mention the panic" >&2; exit 1; }

curl -fsS "http://$addr/healthz" >/dev/null || {
    echo "serve-smoke: daemon unhealthy after injected panic" >&2; exit 1; }
curl -fsS -X POST "http://$addr/v1/project" -d "$req" -o "$tmp/retry.json"
grep -q '"total_seconds"' "$tmp/retry.json" || {
    echo "serve-smoke: retry after exhausted fault is not a projection" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "serve-smoke: faulted drain exited non-zero" >&2; exit 1; }
pid=""
echo "serve-smoke: ok (injected panic contained, retry served, clean drain)"
