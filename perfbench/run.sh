#!/usr/bin/env bash
# Builds the rccsim benchmark from source and runs it. Run it from the
# repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload simloop --seed 1 --seconds 40 --trace 0
#
# Build outputs, the Go build cache, temporary files and span files stay
# under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go telemetry off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
