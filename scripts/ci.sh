#!/bin/sh
# Static gate for the AutoMap reproduction: gofmt, vet, race-enabled
# tests, a coverage ratchet, the benchmark module's tests and replay
# self-check, the paper figures against results/, mapcheck
# over every bundled application's default mapping on both machine models,
# and smoke tests for telemetry, worker determinism, checkpoint/resume,
# checkpoint and fleet fuzzing, and the mapd and mapfleet binaries
# (including replica failover and load shedding). Any failure fails the
# gate. Run from the repository root, directly or via `make check`.
set -eu

cd "$(dirname "$0")/.."

GO=${GO:-go}

tdir=$(mktemp -d)
trap 'rm -rf "$tdir"' EXIT

echo "== gofmt"
unformatted=$("$($GO env GOROOT)/bin/gofmt" -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
$GO vet ./...

echo "== portable build of internal/sim (arm64)"
# internal/sim has an amd64 assembly lane fold; on every other
# architecture the Go fold stands alone. Vetting and compiling the package
# and its tests for arm64 keeps that build working.
GOARCH=arm64 $GO vet ./internal/sim
GOARCH=arm64 $GO test -c -o /dev/null ./internal/sim

echo "== mapvet (project invariants: determinism, atomicity, goroutine lifecycle)"
$GO test -C tools/mapvet ./...
$GO build -C tools/mapvet -o "$tdir/mapvet" .
"$tdir/mapvet" -C . ./...

echo "== go test -race (short mode)"
$GO test -race -short ./...

echo "== go test -race (serve e2e)"
# The daemon end-to-end tests are the concurrency stress surface
# (coalescing, drain/resume, store races); run them under the race
# detector explicitly so a future -short skip cannot silently drop them
# from the race gate.
$GO test -race -count=1 -run 'TestDaemon|TestDrainResume|TestStoreStress' ./internal/serve/...

echo "== go test -race (fleet e2e)"
# The fleet byte-identity and failover tests exercise the cross-replica
# surface: replication pushes racing adoption, duplicate submits racing
# reclaim, and router failover — exactly the paths where a data race
# would corrupt the exactly-once guarantee.
$GO test -race -count=1 -run 'TestFleetByteIdentity|TestFleetFailover' ./internal/fleet/

echo "== go test (full, no race, with coverage)"
$GO test -coverprofile="$tdir/cover.out" ./...

echo "== coverage ratchet"
# Total statement coverage must not regress below the recorded floor.
# When coverage genuinely improves, raise scripts/coverage_floor.txt.
total=$($GO tool cover -func="$tdir/cover.out" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
floor=$(cat scripts/coverage_floor.txt)
awk -v t="$total" -v f="$floor" 'BEGIN {
    if (t + 0 < f + 0) {
        printf "coverage %.1f%% fell below the floor %.1f%% — add tests or lower scripts/coverage_floor.txt with justification\n", t, f
        exit 1
    }
    printf "coverage %.1f%% (floor %.1f%%)\n", t, f
}'

echo "== micro-benchmarks, one iteration each"
# Nothing else executes the benchmarks that scripts/bench.sh names; one
# iteration of each fails the gate when a benchmark's setup rots or panics.
$GO test -run '^$' -bench . -benchtime 1x ./internal/sim ./internal/search ./internal/driver

echo "== benchmark module: vet, tests, traced search passes"
# benchmark/ is a module of its own over these packages: its expected.json
# pins each search workload's outcomes, and its replay self-check requires
# Instance.RunKeyed, sim.Simulate and DeltaInstance.RunKeyed to agree bit
# for bit on every replayed candidate. A 1-second traced pass of each
# search workload (built by benchmark/run.sh into .bench_build/) fails the
# gate when the module stops building, an outcome moves, or the replay
# disagrees: the last line must report "correct":true and "failed":0.
$GO -C benchmark vet ./...
$GO -C benchmark test -count=1 ./...
for w in search-ccd-htr search-anneal-pennant; do
    last=$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    case "$last" in
    *'"correct":true,'*'"failed":0,'*) echo "-- $w: correct, 0 failed" ;;
    *)
        echo "benchmark $w did not report correct with 0 failed: $last" >&2
        exit 1
        ;;
    esac
done

echo "== paper figures byte-identical to results/"
# The committed figures are the reproduction's output: every CSV of
# `-fig all` (~15 s wall on 2 vCPUs) must equal its copy in results/. A change
# that moves a figure on purpose regenerates results/ with
# `make experiments` and says which cells moved.
$GO run ./cmd/experiments -fig all -csv "$tdir/figs" >/dev/null
n=0
for f in "$tdir"/figs/*.csv; do
    cmp "$f" "results/$(basename "$f")" || {
        echo "figure $(basename "$f") differs from results/" >&2; exit 1; }
    n=$((n + 1))
done
[ "$n" -eq "$(ls results/*.csv | wc -l)" ] || {
    echo "-fig all wrote $n CSVs; results/ holds $(ls results/*.csv | wc -l)" >&2; exit 1; }

echo "== checkpoint fuzz smoke"
$GO test -fuzz FuzzLoadCheckpoint -fuzztime 5s -run '^$' ./internal/checkpoint

echo "== fleet fuzz smoke"
# Replication bundles cross the network between replicas; a corrupt or
# adversarial payload must decode to an error, never a panic or a
# half-validated install.
$GO test -fuzz FuzzDecodeBundle -fuzztime 5s -run '^$' ./internal/fleet
$GO test -fuzz FuzzRingChurn -fuzztime 5s -run '^$' ./internal/fleet

echo "== mapcheck"
$GO build -o bin/mapcheck ./cmd/mapcheck
for app in circuit htr maestro pennant stencil; do
    for m in shepard lassen; do
        echo "-- mapcheck -app $app -machine $m"
        ./bin/mapcheck -app "$app" -machine "$m"
    done
done

echo "== telemetry smoke"
$GO build -o bin/automap ./cmd/automap
./bin/automap search -app stencil -nodes 1 -seed 7 \
    -events "$tdir/e1.jsonl" -metrics "$tdir/m1.txt" >/dev/null
./bin/automap search -app stencil -nodes 1 -seed 7 \
    -events "$tdir/e2.jsonl" -metrics "$tdir/m2.txt" >/dev/null
cmp "$tdir/e1.jsonl" "$tdir/e2.jsonl" || {
    echo "telemetry event stream not deterministic under a fixed seed" >&2; exit 1; }
cmp "$tdir/m1.txt" "$tdir/m2.txt" || {
    echo "metrics dump not deterministic under a fixed seed" >&2; exit 1; }
$GO run ./scripts/telemetrycheck "$tdir/e1.jsonl" "$tdir/m1.txt"

echo "== worker-count determinism smoke"
# The worker pool must not change the trajectory: the event stream with
# -workers 8 is byte-identical to -workers 1.
./bin/automap search -app stencil -nodes 1 -seed 7 -workers 1 \
    -events "$tdir/w1.jsonl" >/dev/null
./bin/automap search -app stencil -nodes 1 -seed 7 -workers 8 \
    -events "$tdir/w8.jsonl" >/dev/null
cmp "$tdir/w1.jsonl" "$tdir/w8.jsonl" || {
    echo "telemetry event stream differs between -workers 1 and -workers 8" >&2; exit 1; }
# Span-specific invariance gate: even if non-span events ever legitimately
# diverge by worker count, the span subsequences must stay byte-identical.
$GO run ./scripts/telemetrycheck "$tdir/w1.jsonl" "$tdir/m1.txt" "$tdir/w8.jsonl"
# The same for simulated annealing, whose proposal loop (one move from its
# current state, which may be worse than the best) CCD does not exercise.
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo anneal -seed 7 -workers 1 \
    -events "$tdir/a1.jsonl" >/dev/null
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo anneal -seed 7 -workers 8 \
    -events "$tdir/a8.jsonl" >/dev/null
cmp "$tdir/a1.jsonl" "$tdir/a8.jsonl" || {
    echo "annealing event stream differs between -workers 1 and -workers 8" >&2; exit 1; }

echo "== worker scaling smoke"
# Regression gate for parallel evaluation: with more than one core, htr
# CCD searches at -workers 0 (= GOMAXPROCS) must beat -workers 1 by at
# least 1.10x. One sample per side is the summed wall of the search for 8
# seeds, over 1 s of work on a 2-core host, and the two sides' searches
# alternate one by one, so host noise (steal time on a shared VM) lands
# on both sides alike. Each side is the minimum of 3 samples, the least
# noisy estimate of a CPU-bound run. On a 2-vCPU host with steal time, 28
# runs read 0.91-1.26x (median 1.11x); the 12 below 1.10x ran while the
# hypervisor stole 8-34% of the CPU time. Timing one 0.2 s search per
# sample, 3 per side in two blocks, read 0.88-1.38x (median 0.99x, 11 of
# 15 below 1.10x) over the same hours.
# Trajectory byte-identity at every worker count is proven by the smokes
# above; this gate is purely wall-clock. GOMAXPROCS is read from the
# binary itself, since the driver clamps its pool to it; at 1 the two
# runs are the same program and the gate is skipped with a log line.
# Steal: each sample's steal share (the steal column of /proc/stat's cpu
# line over all its jiffies, read before and after the sample) is
# printed. A sample above 5% steal measured the hypervisor, not the code
# (every sub-1.10x reading above ran under 8-34%), so it is discarded and
# re-taken, up to 9 samples in all; the gate takes the minimum of the
# first 3 clean ones. If none is clean it fails naming steal; a disturbed
# sample never passes it. Without /proc/stat every sample reads 0% steal.
procs=$(./bin/automap env | awk '$1 == "gomaxprocs" { print $2 }')
if [ "$procs" -ge 2 ]; then
    search() {
        ./bin/automap search -app htr -input 32x256y36z -nodes 2 -algo ccd -seed "$1" -workers "$2" >/dev/null
    }
    minof() {
        awk -v b="$1" -v t="$2" 'BEGIN { print (b == "" || t < b) ? t : b }'
    }
    cpuline() {
        grep '^cpu ' /proc/stat 2>/dev/null || echo "cpu 0 0 0 0 0 0 0 0"
    }
    # Steal percentage between two cpu lines: steal over user..steal
    # (guest time is already counted inside user).
    stealpct() {
        printf '%s\n%s\n' "$1" "$2" | awk '{ t[NR] = $2 + $3 + $4 + $5 + $6 + $7 + $8 + $9; s[NR] = $9 }
            END { printf "%.1f", (t[2] > t[1]) ? 100 * (s[2] - s[1]) / (t[2] - t[1]) : 0 }'
    }
    steal_max=5
    # No `time` builtin in POSIX sh; nanosecond wall-clock via GNU date.
    t1=""
    tn=""
    clean=0
    taken=0
    while [ "$clean" -lt 3 ] && [ "$taken" -lt 9 ]; do
        taken=$((taken + 1))
        s1=0
        sn=0
        before=$(cpuline)
        for seed in 1 2 3 4 5 6 7 8; do
            a=$(date +%s%N)
            search "$seed" 1
            b=$(date +%s%N)
            search "$seed" 0
            c=$(date +%s%N)
            s1=$((s1 + b - a))
            sn=$((sn + c - b))
        done
        steal=$(stealpct "$before" "$(cpuline)")
        if awk -v s="$steal" -v m="$steal_max" 'BEGIN { exit !(s > m) }'; then
            verdict="discarded (steal above ${steal_max}%)"
        else
            verdict="clean"
            clean=$((clean + 1))
            t1=$(minof "$t1" "$s1")
            tn=$(minof "$tn" "$sn")
        fi
        awk -v n="$taken" -v s1="$s1" -v sn="$sn" -v procs="$procs" -v steal="$steal" -v v="$verdict" 'BEGIN {
            printf "htr scaling sample %d: w1 %.2fs, w%d %.2fs, steal %s%%, %s\n", n, s1 / 1e9, procs, sn / 1e9, steal, v }'
    done
    if [ "$clean" -eq 0 ]; then
        echo "FAIL worker-scaling gate: all $taken samples ran under more than ${steal_max}% CPU steal; the host, not the code, set their timings" >&2
        exit 1
    fi
    awk -v t1="$t1" -v tn="$tn" -v procs="$procs" -v clean="$clean" 'BEGIN {
        speedup = (tn > 0) ? t1 / tn : 0
        printf "htr scaling: w1 %.2fs, w%d %.2fs per 8 searches, speedup %.2fx (min of %d clean samples each)\n", t1 / 1e9, procs, tn / 1e9, speedup, clean
        if (speedup < 1.10) {
            printf "REGRESSION: htr speedup %.2fx at -workers 0 (gomaxprocs %d) is below 1.10x\n", speedup, procs
            exit 1
        }
    }'
else
    echo "SKIP worker-scaling gate: gomaxprocs $procs (-workers 0 is -workers 1 here)"
fi

echo "== checkpoint/resume smoke"
# A search cut off by a wall-clock deadline must leave a checkpoint that
# resumes to the same optimum, with the interrupted-plus-resumed event
# stream byte-identical to an uninterrupted run. (If the deadline happens
# to land after convergence the checkpoint covers the whole trajectory and
# the resumed run redoes only the final phase — the comparison still holds.)
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo ccd -seed 7 -workers 2 \
    -events "$tdir/r_full.jsonl" -o "$tdir/r_full.json" >/dev/null
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo ccd -seed 7 -workers 2 \
    -events "$tdir/r_part.jsonl" -checkpoint "$tdir/r.ckpt" -deadline 15ms >/dev/null
./bin/automap search -app circuit -input n50w200 -nodes 2 -algo ccd -seed 7 -workers 2 \
    -events "$tdir/r_part.jsonl" -checkpoint "$tdir/r.ckpt" -resume -o "$tdir/r_part.json" >/dev/null
cmp "$tdir/r_full.jsonl" "$tdir/r_part.jsonl" || {
    echo "resumed event stream differs from the uninterrupted run" >&2; exit 1; }
cmp "$tdir/r_full.json" "$tdir/r_part.json" || {
    echo "resumed search found a different mapping" >&2; exit 1; }

echo "== mapd daemon smoke"
# Black-box exercise of the shipped daemon binary: coalescing, event
# streaming, SIGTERM drain, and serving stored results across a restart.
$GO build -o bin/mapd ./cmd/mapd
$GO run ./scripts/mapdsmoke -mapd bin/mapd -dir "$tdir/mapd" -addr 127.0.0.1:18356

echo "== fleet smoke"
# Black-box exercise of the fleet binaries as real processes: two mapd
# replicas behind a mapfleet router; submit through the router, SIGKILL
# the owner, verify the survivor serves the replicated result
# byte-identically, then overload the router and require honest shedding
# (429 + Retry-After, zero client timeouts).
$GO build -o bin/mapfleet ./cmd/mapfleet
$GO run ./scripts/fleetsmoke -mapd bin/mapd -mapfleet bin/mapfleet \
    -dir "$tdir/fleet" -port-base 18360

echo "ci: all checks passed"
