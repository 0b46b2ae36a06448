#!/bin/sh
# Search-pipeline performance benchmark. Runs the simulator hot-path and
# candidate-construction micro-benchmarks (ns/op, allocs/op) at -cpu 1, 4,
# and 8 so parallel scaling is visible in the micro rows, and times
# end-to-end CCD searches at 1, 4, and 8 workers, then writes the results
# as JSON (default: BENCH_search.json). Run from the repository root,
# directly or via `make bench-search`.
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
    -bench 'SimulateOneShot|InstanceRun|InstanceRecord|InstanceRepeats|InstanceRepeatsCold|DeltaRunOneFlip|DeltaRunFallback|PlanCacheHit|PlanCacheMiss' \
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

echo "== end-to-end searches"

run_search() { # app input nodes workers incremental -> prints wall seconds
    # Best of 5: the searches run a few hundred milliseconds, where a
    # single scheduler hiccup on a shared host reads as a fake 30%
    # regression; the minimum is the standard wall-clock estimator for
    # deterministic workloads.
    best=""
    for _ in 1 2 3 4 5; do
        start=$(date +%s%N)
        ./bin/automap search -app "$1" -input "$2" -nodes "$3" -seed 7 \
            -workers "$4" -incremental="$5" >/dev/null
        end=$(date +%s%N)
        secs=$(awk "BEGIN { printf \"%.3f\", ($end - $start) / 1e9 }")
        if [ -z "$best" ] || awk "BEGIN { exit !($secs < $best) }"; then
            best=$secs
        fi
    done
    printf '%s' "$best"
}

# Each configuration runs twice — on the incremental re-simulation path
# (the default) and forced onto full simulation — so the JSON carries the
# end-to-end effect of DESIGN §14, not just the micro-benchmarks. The
# workers field records the REQUESTED pool width and effective_workers
# the width the driver actually runs after clamping to gomaxprocs
# (DESIGN §15). Requests that clamp to the same effective width are the
# same configuration, so they share one measurement: timing them
# separately would report run-to-run noise as a scaling difference.
: > "$tmp/e2e.json"
first=1
for cfg in "htr 32x256y36z 2" "pennant 320x90 1" "circuit n50w200 2"; do
    set -- $cfg
    app=$1; input=$2; nodes=$3
    for w in 1 4 8; do
        eff=$w
        [ "$eff" -gt "$GMP" ] && eff=$GMP
        for inc in true false; do
            cache="$tmp/e2e_${app}_${input}_${nodes}_${inc}_${eff}"
            if [ -f "$cache" ]; then
                secs=$(cat "$cache")
            else
                secs=$(run_search "$app" "$input" "$nodes" "$w" "$inc")
                printf '%s' "$secs" > "$cache"
            fi
            echo "-- $app $input x$nodes workers=$w (effective $eff) incremental=$inc: ${secs}s"
            [ "$first" = 1 ] || printf ',\n' >> "$tmp/e2e.json"
            first=0
            printf '    {"app": "%s", "input": "%s", "nodes": %s, "workers": %s, "effective_workers": %s, "incremental": %s, "seconds": %s}' \
                "$app" "$input" "$nodes" "$w" "$eff" "$inc" "$secs" >> "$tmp/e2e.json"
        done
    done
done
printf '\n' >> "$tmp/e2e.json"

{
    echo '{'
    echo '  "benchmark": "search pipeline (simulator hot path + parallel evaluation)",'
    echo "  \"generated_unix\": $(date +%s),"
    echo "  \"gomaxprocs\": $GMP,"
    echo '  "micro": ['
    cat "$tmp/micro.json"
    echo '  ],'
    echo '  "end_to_end": ['
    cat "$tmp/e2e.json"
    echo '  ]'
    echo '}'
} > "$OUT"

echo "wrote $OUT"
