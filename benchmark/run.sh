#!/usr/bin/env bash
# Builds the benchmark — a Go module of its own in this directory, over the
# repository's packages — and runs it with the given arguments, from the
# repository root:
#
#   bash benchmark/run.sh --workload search-ccd-htr --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary, and the benchmark's
# scratch files. The first build fills the cache (a minute or two); later
# ones take a second.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C benchmark build -o "$out/benchmark" .

BENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$out/benchmark" "$@"
