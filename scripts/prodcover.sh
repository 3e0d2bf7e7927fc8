#!/usr/bin/env bash
# prodcover.sh — which internal/ functions no production entry point runs.
# Build every main under cmd/ and examples/ with integration coverage over
# the whole module, run one fixed scenario — `figures -all`, `swapp` with no
# flags and with a class-D `-validate -trace` request, the published-data
# round trip (below), `nasrun` with no flags, the four examples and the three
# smoke scripts, unedited (their own `go build` picks up the exported
# GOFLAGS and their daemons write into the exported GOCOVERDIR) — and list
# the internal/ functions at 0.0 %.
#
# The round trip: `imbrun` writes hydra's and power6-575's full IMB tables
# at every count a BT-MZ.C@64 request gathers (16, 32, 64, 128) and
# `specrun` both SPEC suites; `swapp -validate` on those four inputs must
# print the same bytes as the same request with no files, whose served IMB
# tables are sparse. A second run adds hydra's 8-rank table to -imb-base,
# which power6-575 lacks, and must grade the projection B. Each must be named in scripts/prodcover_allowlist.txt
# with a reason. Fails on an internal/ package no main links, on an
# unreached function the allowlist does not name, on an entry for a function
# that is reached now (or gone), and on an entry with no reason.
#
# `go run ./bench` is not in the scenario: what only bench/ runs is listed,
# under its own heading, as bench/-only.
set -euo pipefail

cd "$(dirname "$0")/.."
allow=scripts/prodcover_allowlist.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

export GOFLAGS='-cover -coverpkg=./...'
export GOCOVERDIR="$tmp/cov"
mkdir -p "$GOCOVERDIR" "$tmp/bin" "$tmp/csv"
go build -o "$tmp/bin/" ./cmd/... ./examples/...
bin=$tmp/bin

echo "prodcover: figures, swapp, imbrun, specrun, nasrun, examples"
"$bin/figures" -all -csv "$tmp/csv" -metrics >/dev/null 2>&1
"$bin/swapp" >/dev/null
"$bin/swapp" -bench SP-MZ -class D -ranks 128 -target bgp -validate -trace "$tmp/trace.json" >/dev/null

pub=$tmp/pub
mkdir -p "$pub"
for m in hydra power6-575; do
    "$bin/specrun" -machine "$m" >"$pub/spec-$m.json"
    for c in 16 32 64 128; do
        "$bin/imbrun" -machine "$m" -ranks "$c" >"$pub/imb-$m-$c.json"
    done
done
"$bin/imbrun" -machine hydra -ranks 8 >"$pub/imb-hydra-8.json"
imbs() { echo "$pub/imb-$1-16.json,$pub/imb-$1-32.json,$pub/imb-$1-64.json,$pub/imb-$1-128.json"; }
req=(-bench BT-MZ -class C -ranks 64 -target power6-575 -validate)
files=(-spec-base "$pub/spec-hydra.json" -spec-target "$pub/spec-power6-575.json" -imb-target "$(imbs power6-575)")
"$bin/swapp" "${req[@]}" >"$tmp/measured.txt"
"$bin/swapp" "${req[@]}" "${files[@]}" -imb-base "$(imbs hydra)" >"$tmp/published.txt"
if ! cmp "$tmp/measured.txt" "$tmp/published.txt"; then
    echo "prodcover: swapp from imbrun/specrun documents differs from the same request measured in-process:"
    diff "$tmp/measured.txt" "$tmp/published.txt" || true
    exit 1
fi
"$bin/swapp" "${req[@]}" "${files[@]}" -imb-base "$(imbs hydra),$pub/imb-hydra-8.json" >"$tmp/graded.txt"
if ! grep -q 'quality: grade B' "$tmp/graded.txt" || ! grep -q 'missing-imb-count' "$tmp/graded.txt"; then
    echo "prodcover: a base IMB table at a count the target lacks did not grade the projection B:"
    cat "$tmp/graded.txt"
    exit 1
fi

"$bin/nasrun" >/dev/null
for ex in customapp procurement quickstart scalingstudy; do
    "$bin/$ex" >/dev/null
done
./scripts/serve_smoke.sh
./scripts/cluster_smoke.sh
./scripts/crash_smoke.sh

# covdata prints "<module>/<file>:<line>: <func> <pct>", and drops a generic
# method's receiver; spell each unreached internal/ function from its
# declaration line instead — pkg.F, pkg.(*T).M or pkg.T.M, as
# TestNoTestOnlyExports does.
mod=$(go list -m)
go tool covdata func -i "$GOCOVERDIR" >"$tmp/funcs"
awk -v pre="$mod/" 'index($1, pre "internal/") == 1 && $NF == "0.0%" {
        split(substr($1, length(pre) + 1), at, ":"); print at[1], at[2] }' "$tmp/funcs" |
    while read -r file line; do
        pkg=$(dirname "${file#internal/}")
        sed -n "${line}p" "$file" | sed -E \
            -e 's/^func \(([A-Za-z0-9_]+ )?\*([A-Za-z0-9_]+)[^)]*\) ([A-Za-z0-9_]+).*/(*\2).\3/' \
            -e 's/^func \(([A-Za-z0-9_]+ )?([A-Za-z0-9_]+)[^)]*\) ([A-Za-z0-9_]+).*/\2.\3/' \
            -e 's/^func ([A-Za-z0-9_]+).*/\1/' -e "s|^|$pkg.|"
    done | sort -u >"$tmp/unreached"

# Allowlist lines are "<func> <reason>"; blank lines and # comments group them.
grep -v -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$allow" >"$tmp/entries" || true
awk '{ print $1 }' "$tmp/entries" | sort -u >"$tmp/listed"

# covdata lists only the packages some binary links: a package no main
# links is not at 0 %, it is missing.
go list ./internal/... | sort >"$tmp/pkgs"
awk '{ sub(/\/[^\/]*:.*/, "", $1); print $1 }' "$tmp/funcs" | sort -u >"$tmp/linked"

fail=0
while read -r pkg; do
    echo "prodcover: package $pkg is linked by no entry point: delete it"
    fail=1
done < <(comm -23 "$tmp/pkgs" "$tmp/linked")
while read -r fn; do
    echo "prodcover: $fn is reached by no entry point: run it in the scenario, delete it, or allowlist it with a reason"
    fail=1
done < <(comm -23 "$tmp/unreached" "$tmp/listed")
while read -r fn; do
    echo "prodcover: allowlist entry $fn is reached now (or gone): remove the entry"
    fail=1
done < <(comm -13 "$tmp/unreached" "$tmp/listed")
while read -r fn; do
    echo "prodcover: allowlist entry $fn has no reason"
    fail=1
done < <(awk 'NF < 2 { print $1 }' "$tmp/entries")

echo "prodcover: $(wc -l <"$tmp/unreached") internal/ functions unreached, $(wc -l <"$tmp/listed") allowlisted"
exit $fail
