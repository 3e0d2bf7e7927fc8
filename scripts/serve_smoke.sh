#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the swappd projection service:
# build it, start it on a free port, check /healthz, run one real
# /v1/project round-trip twice, assert the second answer comes from the
# cache with an identical body whose compute section carries the Eq. 2
# ratio, ask /v1/validate once for the same request, check /v1/surrogate is
# gone (404), let one request's deadline expire (504), read /metrics.json,
# then drain with SIGTERM and require a clean exit.
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

# A client after the Eq. 2 compute surrogate alone reads the compute
# section of the cached /v1/project document: there is no endpoint for it.
grep -q '"compute":{[^}]*"speedup_ratio"' "$tmp/second.json" || {
    echo "serve-smoke: the cached projection's compute section has no speedup_ratio" >&2; exit 1; }
status=$(curl -sS -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/surrogate" -d "$req")
[ "$status" = 404 ] || {
    echo "serve-smoke: /v1/surrogate answered $status, want 404" >&2; exit 1; }
# The other evaluation endpoint on the same request: /v1/validate adds the
# measured run on the target.
curl -fsS -X POST "http://$addr/v1/validate" -d "$req" -o "$tmp/validate.json"
grep -q '"measured_total_seconds"' "$tmp/validate.json" || {
    echo "serve-smoke: /v1/validate response carries no measured run" >&2; exit 1; }
# A deadline that expires before its evaluation ends is a 504 with a JSON
# error body (a target not yet characterised takes far longer than 1 ms).
status=$(curl -sS -o "$tmp/late.json" -w '%{http_code}' -X POST "http://$addr/v1/project" \
    -d '{"target":"bgp","bench":"LU-MZ","class":"C","ranks":16,"timeout_ms":1}')
[ "$status" = 504 ] || {
    echo "serve-smoke: an expired deadline returned $status, want 504" >&2; exit 1; }
grep -q '"error"' "$tmp/late.json" || {
    echo "serve-smoke: the 504 body carries no error" >&2; exit 1; }
curl -fsS "http://$addr/metrics.json" -o "$tmp/metrics.json"
grep -q '"server.cache.result_hits"' "$tmp/metrics.json" || {
    echo "serve-smoke: /metrics.json does not count the cache hit" >&2; exit 1; }

kill -TERM "$pid"
wait "$pid" || { echo "serve-smoke: drain exited non-zero" >&2; exit 1; }
pid=""
grep -q drained "$tmp/err.log" || {
    echo "serve-smoke: missing drain log" >&2; exit 1; }
echo "serve-smoke: ok (cached round-trip with its compute section, validate, surrogate 404, expired deadline, metrics + clean drain)"
