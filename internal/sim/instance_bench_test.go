// Micro-benchmarks of the simulator hot path: one-shot Simulate (a
// throwaway Instance per call, so topology, placement and the recorded
// schedule are rebuilt every time) against the reusable Instance (cached
// topology, plans and noise tapes, pooled run state), the worker pool's
// call on one shared Instance, and the plan-cache hit and miss paths in
// isolation. Allocation counts are part
// of the contract: the search runs hundreds of thousands of simulations,
// so allocs/op here dominate its GC load. The miss path also prices what
// the cache retains per candidate: a flat plan of a few pointer-free
// slices, whose allocation count TestPlanPlacementAllocs pins.
package sim

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

// benchProblem is a mid-size multi-node problem (pennant on 4 Shepard
// nodes), representative of one candidate evaluation during a search.
func benchProblem(b testing.TB) (*machine.Machine, *taskir.Graph, *mapping.Mapping) {
	b.Helper()
	app, err := apps.Get("pennant")
	if err != nil {
		b.Fatal(err)
	}
	g, err := app.Build("320x720", 4)
	if err != nil {
		b.Fatal(err)
	}
	m := cluster.Shepard(4)
	return m, g, mapping.Default(g, m.Model())
}

// BenchmarkSimulateOneShot measures Simulate: each call builds the
// topology, plans placement, records the schedule into a fresh run state's
// scratch and folds it there, caching nothing. B/op is dominated by that
// schedule buffer; a search calls Simulate only a couple of times.
func BenchmarkSimulateOneShot(b *testing.B) {
	m, g, mp := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(m, g, mp, Config{NoiseSigma: 0.04, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInstanceRun(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.RunKeyed(key, mp, Config{NoiseSigma: 0.04, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceRecord measures a candidate's first RunKeyed: the
// noise-free structure pass that records its schedule, then the fold of
// that schedule under the run's config. Each iteration drops the cached
// schedule, so every run records afresh, while the placement plan stays
// cached (BenchmarkPlanCacheMiss prices planning). The recording goes into
// a pooled state's recycled scratch, which stops growing once it has held
// the longest schedule; B/op is the exact-length copy RunKeyed caches plus
// the fold's Result.
func BenchmarkInstanceRecord(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	if _, err := inst.RunKeyed(key, mp, Config{NoiseSigma: 0.04, Seed: 0}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.dropSchedule(key)
		if _, err := inst.RunKeyed(key, mp, Config{NoiseSigma: 0.04, Seed: uint64(i % 7)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceRepeats prices the fold side of one candidate's
// measurement: foldRepeats over n seeds as RunRepeats folds them (the
// host's lane fold above its crossover), the Go lane fold (foldLanes) in
// blocks at every n (portable), and n per-seed folds of the same recorded
// schedule, for the repeat counts the driver and the experiments use (1,
// 3, 7, 31). foldRepeats must not be slower than the per-seed folds at
// any n; each lane fold's crossover (laneFold.min) is set from these rows.
func BenchmarkInstanceRepeats(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	plan, err := inst.PlanPlacement(mp)
	if err != nil {
		b.Fatal(err)
	}
	sch := new(state).record(plan)
	for _, n := range []int{1, 3, 7, 31} {
		seeds := make([]uint64, n)
		for i := range seeds {
			seeds[i] = uint64(i)
		}
		out := make([]Summary, n)
		// Draw the noise tapes and lane blocks: the timed loops measure
		// only the folds.
		inst.foldRepeats(hostLanes, sch, plan, 0.04, seeds, out)
		goBlocks := laneFold{fold: foldLanes, min: 1}
		inst.foldRepeats(goBlocks, sch, plan, 0.04, seeds, out)
		for _, seed := range seeds {
			inst.fold(sch, plan, Config{NoiseSigma: 0.04, Seed: seed}, nil)
		}
		b.Run(fmt.Sprintf("seeds=%d/foldRepeats", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst.foldRepeats(hostLanes, sch, plan, 0.04, seeds, out)
			}
		})
		b.Run(fmt.Sprintf("seeds=%d/portable", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst.foldRepeats(goBlocks, sch, plan, 0.04, seeds, out)
			}
		})
		b.Run(fmt.Sprintf("seeds=%d/fold", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, seed := range seeds {
					inst.fold(sch, plan, Config{NoiseSigma: 0.04, Seed: seed}, nil)
				}
			}
		})
	}
}

// BenchmarkInstanceRepeatsCold prices a revisited candidate under the
// driver's protocol: RunRepeats over 7 seeds, which records the structure
// into recycled scratch and folds it for every seed. The placement plan
// and the noise block stay warm. The Summaries
// are the caller's and the schedule allocates nothing once the scratch has
// held the longest recording, so a measured candidate allocates nearly
// nothing here.
func BenchmarkInstanceRepeatsCold(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	seeds := []uint64{0, 1, 2, 3, 4, 5, 6}
	out := make([]Summary, len(seeds))
	if err := inst.RunRepeats(key, mp, 0.04, seeds, out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inst.RunRepeats(key, mp, 0.04, seeds, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstanceRunParallel times concurrent runners sharing one
// Instance, which its locking allows but no search does (each search uses
// its Instance from one goroutine): RunRepeats over the driver's 7
// seeds on a distinct, cold candidate per iteration (a key no earlier call
// used), so every call plans placement, records the structure and folds a
// lane block, and only the noise block is warm. ns/op is wall time per
// candidate across all runners: up to the host's core count it should
// fall as -cpu grows, and a flat or rising ns/op means the runners
// serialize on the Instance. Values of -cpu above the core count measure
// oversubscription, not contention.
func BenchmarkInstanceRunParallel(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	seeds := []uint64{0, 1, 2, 3, 4, 5, 6}
	if err := inst.RunRepeats(key, mp, 0.04, seeds, make([]Summary, len(seeds))); err != nil {
		b.Fatal(err)
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		out := make([]Summary, len(seeds))
		for pb.Next() {
			k := key + strconv.FormatInt(next.Add(1), 10)
			if err := inst.RunRepeats(k, mp, 0.04, seeds, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPlanCacheHit(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	if _, err := inst.PlanPlacement(mp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.PlanPlacement(mp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanCacheMiss(b *testing.B) {
	m, g, mp := benchProblem(b)
	inst := New(m, g)
	key := mp.Key()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A unique key per iteration forces the miss path (plan built
		// from the cached topology) without paying Key() on a mutated
		// mapping each round.
		if _, err := inst.planFor(key+strconv.Itoa(i), mp); err != nil {
			b.Fatal(err)
		}
	}
}
