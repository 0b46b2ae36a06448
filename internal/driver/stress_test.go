package driver

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/profile"
	"automap/internal/taskir"
	"automap/internal/telemetry"
)

// forceParallel raises GOMAXPROCS so resolveWorkers does not clamp
// multi-worker configurations to 1 on a single-core CI host; restored on
// cleanup. GOMAXPROCS above the physical core count is valid — the
// runtime preemptively interleaves the goroutines — so -race still
// exercises the real concurrent paths.
func forceParallel(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestConcurrentPrefetchAndDB hammers the evaluator's Prefetch path and the
// profiles database from many goroutines at once while Evaluate commits
// sequentially — the scenario the worker pool creates. Run under -race this
// pins the locking of profile.DB, the speculative cache, and the simulator
// instance's plan cache and state pool.
func TestConcurrentPrefetchAndDB(t *testing.T) {
	forceParallel(t, 8)
	m := cluster.Shepard(2)
	g := driverGraph(t)
	md := m.Model()
	opts := quickOpts()
	opts.Workers = 8
	ev := NewEvaluator(m, g, opts)

	// A pool of distinct candidates (different proc kinds × distribution).
	var cands []*mapping.Mapping
	for _, k := range []machine.ProcKind{machine.CPU, machine.GPU} {
		for _, dist := range []bool{true, false} {
			for _, dist2 := range []bool{true, false} {
				mp := mapping.Default(g, md)
				mp.SetProc(0, k)
				mp.RebuildPriorityLists(md, 0)
				mp.SetDistribute(0, dist)
				mp.SetDistribute(1, dist2)
				cands = append(cands, mp)
			}
		}
	}

	var wg sync.WaitGroup
	// Concurrent speculative batches over overlapping candidate sets.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				batch := append([]*mapping.Mapping(nil), cands[off%len(cands):]...)
				ev.Prefetch(batch)
			}
		}(i)
	}
	// Concurrent readers of the shared database.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 200; r++ {
				for _, mp := range cands {
					key := mp.Key()
					ev.DB.Lookup(key)
					ev.DB.MeanOf(key)
				}
				ev.DB.Len()
				ev.DB.Keys()
			}
		}()
	}
	// The sequential commit stream (the search goroutine).
	for r := 0; r < 5; r++ {
		for _, mp := range cands {
			ev.Evaluate(mp)
		}
	}
	wg.Wait()

	if ev.Evaluated != len(cands) {
		t.Fatalf("Evaluated = %d, want %d distinct", ev.Evaluated, len(cands))
	}
	// Every candidate must be recorded exactly once despite the concurrent
	// speculation (Evaluate committed each key a single time).
	if ev.DB.Len() != len(cands) {
		t.Fatalf("DB.Len() = %d, want %d", ev.DB.Len(), len(cands))
	}
	for _, mp := range cands {
		s, ok := ev.DB.Lookup(mp.Key())
		if !ok || s.Failed {
			t.Fatalf("candidate %s missing or failed", mp.Key())
		}
		if len(s.Times) != opts.Repeats {
			t.Fatalf("candidate has %d samples, want %d (double commit?)", len(s.Times), opts.Repeats)
		}
	}
}

// TestConcurrentBasePublish pins the incumbent/delta-base publish path:
// the search loop accepts improvements (SetDeltaBase) between speculative
// batches, while the next batch's eight workers measure candidates at
// once. Under -race this catches any state the base swap shares with a
// worker, and the final database must be byte-identical to the same
// trajectory at workers=1 (speculation and base swaps may change
// wall-clock time only).
func TestConcurrentBasePublish(t *testing.T) {
	forceParallel(t, 8)
	m := cluster.Shepard(2)
	g := driverGraph(t)
	md := m.Model()

	var cands []*mapping.Mapping
	for _, k := range []machine.ProcKind{machine.CPU, machine.GPU} {
		for _, k2 := range []machine.ProcKind{machine.CPU, machine.GPU} {
			for _, dist := range []bool{true, false} {
				for _, dist2 := range []bool{true, false} {
					mp := mapping.Default(g, md)
					mp.SetProc(0, k)
					mp.RebuildPriorityLists(md, 0)
					mp.SetProc(1, k2)
					mp.RebuildPriorityLists(md, 1)
					mp.SetDistribute(0, dist)
					mp.SetDistribute(1, dist2)
					cands = append(cands, mp)
				}
			}
		}
	}

	run := func(workers int) *profile.DB {
		opts := quickOpts()
		opts.Workers = workers
		opts.WallMetrics = telemetry.NewRegistry()
		ev := NewEvaluator(m, g, opts)
		best := math.Inf(1)
		for i, mp := range cands {
			// Re-batch from the remaining pool before every commit —
			// the CCD pattern that supersedes in-flight speculation on
			// each accept.
			ev.Prefetch(cands[i:])
			v := ev.Evaluate(mp)
			if !v.Failed && v.MeanSec < best {
				best = v.MeanSec
				// Publish a new incumbent, as a search does on
				// an accept.
				ev.SetDeltaBase(mp)
			}
		}
		return ev.DB
	}

	db1 := run(1)
	db8 := run(8)
	if db1.Len() != db8.Len() {
		t.Fatalf("DB.Len() differs: workers=1 %d, workers=8 %d", db1.Len(), db8.Len())
	}
	for _, mp := range cands {
		key := mp.Key()
		s1, ok1 := db1.Lookup(key)
		s8, ok8 := db8.Lookup(key)
		if ok1 != ok8 {
			t.Fatalf("key %s present=%v at workers=1 but %v at workers=8", key, ok1, ok8)
		}
		if !ok1 {
			continue
		}
		if s1.Failed != s8.Failed {
			t.Fatalf("key %s failed=%v vs %v", key, s1.Failed, s8.Failed)
		}
		if !reflect.DeepEqual(s1.Times, s8.Times) {
			t.Fatalf("key %s measured %v at workers=1 but %v at workers=8", key, s1.Times, s8.Times)
		}
	}
}

// basePublishPool returns 16 distinct candidates over the driver test
// graph: every proc kind and distribution choice of its two tasks.
func basePublishPool(g *taskir.Graph, md *machine.Model) []*mapping.Mapping {
	var cands []*mapping.Mapping
	for _, k := range []machine.ProcKind{machine.CPU, machine.GPU} {
		for _, k2 := range []machine.ProcKind{machine.CPU, machine.GPU} {
			for _, dist := range []bool{true, false} {
				for _, dist2 := range []bool{true, false} {
					mp := mapping.Default(g, md)
					mp.SetProc(0, k)
					mp.RebuildPriorityLists(md, 0)
					mp.SetProc(1, k2)
					mp.RebuildPriorityLists(md, 1)
					mp.SetDistribute(0, dist)
					mp.SetDistribute(1, dist2)
					cands = append(cands, mp)
				}
			}
		}
	}
	return cands
}

// workerEvals sums the per-slot driver.worker.evals counters: how many
// speculative measurements the evaluator's batches completed.
func workerEvals(snap map[string]float64) float64 {
	var n float64
	for name, v := range snap { //mapvet:unordered commutative sum
		if strings.HasPrefix(name, "driver.worker.evals{") {
			n += v
		}
	}
	return n
}

// TestPrefetchThenEvaluateCommitsBatch pins the blocking batch: once
// Prefetch returns, every valid candidate of the batch is measured exactly
// once, so evaluating them in order never measures synchronously, and the
// database equals the workers=1 one.
func TestPrefetchThenEvaluateCommitsBatch(t *testing.T) {
	forceParallel(t, 4)
	m := cluster.Shepard(2)
	g := driverGraph(t)
	md := m.Model()
	cands := basePublishPool(g, md)
	var valid []*mapping.Mapping
	for _, mp := range cands {
		if mp.Validate(g, md) == nil {
			valid = append(valid, mp)
		}
	}
	if len(valid) < 2 {
		t.Fatalf("only %d valid candidates; the test needs a batch", len(valid))
	}

	run := func(workers int) (*profile.DB, map[string]float64) {
		opts := quickOpts()
		opts.Workers = workers
		opts.WallMetrics = telemetry.NewRegistry()
		ev := NewEvaluator(m, g, opts)
		ev.Prefetch(cands)
		for _, mp := range valid {
			ev.Evaluate(mp)
		}
		return ev.DB, opts.WallMetrics.Snapshot()
	}

	db1, _ := run(1)
	db4, wall := run(4)
	if got := wall["driver.commit.sync_evals"]; got != 0 {
		t.Fatalf("driver.commit.sync_evals = %v after a completed batch, want 0", got)
	}
	if got := workerEvals(wall); got != float64(len(valid)) {
		t.Fatalf("batch measured %v candidates, want each of %d valid ones once", got, len(valid))
	}
	for _, mp := range cands {
		key := mp.Key()
		s1, ok1 := db1.Lookup(key)
		s4, ok4 := db4.Lookup(key)
		if ok1 != ok4 || s1.Failed != s4.Failed || !reflect.DeepEqual(s1.Times, s4.Times) {
			t.Fatalf("key %s: workers=1 %v/%+v, workers=4 %v/%+v", key, ok1, s1, ok4, s4)
		}
	}
}

// TestPrefetchSupersedeCountsDroppedResults pins driver.prefetch.superseded:
// a re-batch keeps the results it still contains and drops the rest, and
// the counter rises by exactly the number dropped.
func TestPrefetchSupersedeCountsDroppedResults(t *testing.T) {
	forceParallel(t, 4)
	m := cluster.Shepard(2)
	g := driverGraph(t)
	md := m.Model()
	var cands []*mapping.Mapping
	for _, mp := range basePublishPool(g, md) {
		if mp.Validate(g, md) == nil {
			cands = append(cands, mp)
		}
	}
	if len(cands) < 12 {
		t.Fatalf("only %d valid candidates, want 12", len(cands))
	}
	opts := quickOpts()
	opts.Workers = 4
	opts.WallMetrics = telemetry.NewRegistry()
	ev := NewEvaluator(m, g, opts)
	check := func(step string, superseded, measured float64, spec int) {
		t.Helper()
		wall := opts.WallMetrics.Snapshot()
		if got := wall["driver.prefetch.superseded"]; got != superseded {
			t.Fatalf("%s: driver.prefetch.superseded = %v, want %v", step, got, superseded)
		}
		if got := workerEvals(wall); got != measured {
			t.Fatalf("%s: %v speculative measurements, want %v", step, got, measured)
		}
		if len(ev.spec) != spec {
			t.Fatalf("%s: %d speculative results held, want %d", step, len(ev.spec), spec)
		}
	}

	ev.Prefetch(cands[:6])
	check("first batch", 0, 6, 6)
	// Overlap of 3: cands[3:6] are kept, cands[:3] dropped, cands[6:9]
	// measured.
	ev.Prefetch(cands[3:9])
	check("re-batch", 3, 9, 6)
	// Consuming a result is not superseding it.
	ev.Evaluate(cands[3])
	check("evaluate", 3, 9, 5)
	// Held: cands[4:9]. The batch keeps cands[8], drops four, and
	// measures cands[9:12]; cands[3] is in the database now.
	ev.Prefetch(append([]*mapping.Mapping{cands[3]}, cands[8:12]...))
	check("third batch", 7, 12, 4)
}

// TestConcurrentDBRecord pins profile.DB's own locking: concurrent Record,
// RecordFailure, Lookup, MeanOf, Save-path iteration (Keys) on overlapping
// keys.
func TestConcurrentDBRecord(t *testing.T) {
	db := profile.NewDB()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 500; r++ {
				k := keys[(i+r)%len(keys)]
				switch r % 4 {
				case 0:
					db.Record(k, []float64{float64(r)})
				case 1:
					db.Lookup(k)
				case 2:
					db.MeanOf(k)
				case 3:
					db.Keys()
				}
			}
		}(i)
	}
	wg.Wait()
	if db.Len() != len(keys) {
		t.Fatalf("DB.Len() = %d, want %d", db.Len(), len(keys))
	}
}
