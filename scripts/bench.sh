#!/bin/sh
# Search-pipeline micro-benchmarks. Runs the simulator hot-path and
# candidate-construction micro-benchmarks (ns/op, allocs/op) at -cpu 1, 4,
# and 8 so parallel scaling is visible in the rows, then writes the results
# as JSON (default: BENCH_search.json). End-to-end searches are measured by
# the repository's benchmark (benchmark/run.sh), not here. Run from the
# repository root, directly or via `make bench-search`.
#
# Environment:
#   GO         go binary (default: go)
#   BENCHTIME  -benchtime for the micro-benchmarks (default: 100x)
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}
OUT=${1:-BENCH_search.json}
BENCHTIME=${BENCHTIME:-100x}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

$GO build -o bin/automap ./cmd/automap

# The effective parallelism, reported by the runtime of the binary under
# benchmark — NOT $(nproc): under a cgroup CPU quota or an explicit
# GOMAXPROCS the two differ, and the honest number is the one the
# measurements actually ran with.
GMP=$(./bin/automap env | awk '/^gomaxprocs /{print $2}')

echo "== micro-benchmarks (-benchtime $BENCHTIME, -cpu 1,4,8; host gomaxprocs $GMP)"
$GO test ./internal/sim/ -run xxx -benchmem -benchtime "$BENCHTIME" -cpu 1,4,8 \
    -bench 'SimulateOneShot|InstanceRun|InstanceRecord|InstanceRepeats|InstanceRepeatsCold|PlanCacheHit|PlanCacheMiss' \
    | grep '^Benchmark' | tee -a "$tmp/micro.txt"
$GO test ./internal/search/ -run xxx -benchmem -benchtime "$BENCHTIME" -cpu 1,4,8 \
    -bench 'CCDCandidateConstruction' \
    | grep '^Benchmark' | tee -a "$tmp/micro.txt"

# Emit one JSON object per benchmark line: scan fields for the unit markers
# so the extra ReportMetric columns (moves/op) don't shift the parse. The
# -N suffix Go appends to the benchmark name is the GOMAXPROCS that run
# executed under (absent means 1); it becomes the row's gomaxprocs field.
awk '{
    name = $1; procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    sub(/^Benchmark/, "", name)
    ns = ""; allocs = ""; bytes = ""
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns = $(i-1)
        if ($i == "allocs/op") allocs = $(i-1)
        if ($i == "B/op") bytes = $(i-1)
    }
    printf "    {\"name\": \"%s\", \"gomaxprocs\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s},\n", name, procs, ns, bytes, allocs
}' "$tmp/micro.txt" | sed '$ s/,$//' > "$tmp/micro.json"

{
    echo '{'
    echo '  "benchmark": "search pipeline micro-benchmarks (simulator hot path, candidate construction)",'
    echo "  \"generated_unix\": $(date +%s),"
    echo "  \"gomaxprocs\": $GMP,"
    echo '  "micro": ['
    cat "$tmp/micro.json"
    echo '  ]'
    echo '}'
} > "$OUT"

echo "wrote $OUT"
