#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash benchmark/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary files and the binary stay in .bench_build
# at the repository root; the build uses the local toolchain only.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$out/northstar-bench" .)
exec "$out/northstar-bench" "$@"
