#!/bin/sh
# Search-pipeline micro-benchmarks. Runs the simulator hot-path and
# candidate-construction micro-benchmarks (ns/op, allocs/op) -count 10
# times each, all at -cpu 1 (a search runs on one goroutine), and writes
# the median and interquartile range of every row as JSON
# (default: BENCH_search.json). End-to-end searches are measured by the
# repository's benchmark (benchmark/run.sh), not here. Run from the
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

bench() { # package, -cpu list, -bench regexp
    $GO test "$1" -run '^$' -benchmem -benchtime "$BENCHTIME" -count 10 -cpu "$2" -bench "$3" \
        | grep '^Benchmark' | tee -a "$tmp/micro.txt"
}

echo "== micro-benchmarks (-benchtime $BENCHTIME, -count 10; host gomaxprocs $GMP)"
bench ./internal/sim/ 1 'SimulateOneShot|InstanceRun$|InstanceRecord|InstanceRepeats|PlanCacheHit|PlanCacheMiss'
bench ./internal/search/ 1 'CCDCandidateConstruction'

# One JSON object per (benchmark, gomaxprocs): the median and the
# interquartile range (linear-interpolated quartiles) of ns/op over the
# samples, and the median B/op and allocs/op. Fields are found by their
# unit markers so extra ReportMetric columns (moves/op) don't shift the
# parse. The -N suffix Go appends to the benchmark name is the GOMAXPROCS
# the sample ran under (absent means 1).
awk '
function q(a, n, p,    i, j, v, h, lo) {
    for (i = 2; i <= n; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j+1] = a[j]
        a[j+1] = v
    }
    h = (n - 1) * p + 1; lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo+1] - a[lo])
}
{
    name = $1; procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    sub(/^Benchmark/, "", name)
    row = name SUBSEP procs
    if (!(row in n)) { order[++rows] = row; rname[row] = name; rprocs[row] = procs }
    k = ++n[row]
    for (i = 2; i <= NF; i++) {
        if ($i == "ns/op") ns[row, k] = $(i-1)
        if ($i == "B/op") by[row, k] = $(i-1)
        if ($i == "allocs/op") al[row, k] = $(i-1)
    }
}
END {
    for (r = 1; r <= rows; r++) {
        row = order[r]; c = n[row]
        for (k = 1; k <= c; k++) { x[k] = ns[row, k]; y[k] = by[row, k]; z[k] = al[row, k] }
        med = q(x, c, 0.5); iqr = q(x, c, 0.75) - q(x, c, 0.25)
        printf "    {\"name\": \"%s\", \"gomaxprocs\": %s, \"samples\": %d, \"ns_per_op\": %.0f, \"ns_iqr\": %.0f, \"bytes_per_op\": %.0f, \"allocs_per_op\": %.0f}%s\n", \
            rname[row], rprocs[row], c, med, iqr, q(y, c, 0.5), q(z, c, 0.5), (r < rows ? "," : "")
    }
}' "$tmp/micro.txt" > "$tmp/micro.json"

{
    echo '{'
    echo '  "benchmark": "search pipeline micro-benchmarks (simulator hot path, candidate construction): median and IQR of ns/op over 10 samples",'
    echo "  \"generated_unix\": $(date +%s),"
    echo "  \"gomaxprocs\": $GMP,"
    echo "  \"benchtime\": \"$BENCHTIME\","
    echo '  "micro": ['
    cat "$tmp/micro.json"
    echo '  ]'
    echo '}'
} > "$OUT"

echo "wrote $OUT"
