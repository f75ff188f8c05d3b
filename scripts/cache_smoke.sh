#!/usr/bin/env bash
# Smoke test of rccsweep's content-addressed result cache at the CLI
# level: a -j 2 reference run, a cold -cache-dir run and a warm re-run
# over the same cache must print byte-identical output, and the warm run
# must be served entirely from the cache (100% hit ratio).
#
# Usage: scripts/cache_smoke.sh
#
# Writes the cold and warm cache summary lines to cache-smoke-metrics.txt
# for CI artifact upload.
set -euo pipefail

cd "$(dirname "$0")/.."
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/rccsweep" ./cmd/rccsweep

flags=(-bench DLB -scale 0.1 -j 2)
sweep=lease

echo "cache_smoke: reference run (-j 2, no cache)"
"$tmp/rccsweep" "${flags[@]}" "$sweep" >"$tmp/ref.out"

for run in cold warm; do
	echo "cache_smoke: $run run over -cache-dir"
	"$tmp/rccsweep" "${flags[@]}" -cache-dir "$tmp/cache" "$sweep" >"$tmp/$run.out" 2>"$tmp/$run.err"
	diff -u "$tmp/ref.out" "$tmp/$run.out" || {
		echo "cache_smoke: FAIL: $run cached sweep output differs from the reference" >&2
		exit 1
	}
done
echo "cache_smoke: cold and warm output are byte-identical to the reference"

summary="$(grep 'rccsweep: cache' "$tmp/warm.err" | tail -1)"
echo "cache_smoke: $summary"
case "$summary" in
*"hit ratio 100%"*) ;;
*)
	echo "cache_smoke: FAIL: warm run was not served 100% from the cache" >&2
	exit 1
	;;
esac

{
	echo "cache_smoke_cold: $(grep 'rccsweep: cache' "$tmp/cold.err" | tail -1)"
	echo "cache_smoke_warm: $summary"
} >cache-smoke-metrics.txt
echo "cache_smoke: PASS (metrics in cache-smoke-metrics.txt)"
