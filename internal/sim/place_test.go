package sim

import "testing"

// planAllocs is the allocation count of one placement plan: the plan
// header, its placement table, node list and node offsets, the per-memory
// totals, and the capacity ledger that place discards.
const planAllocs = 6

// TestPlanPlacementAllocs pins the flat plan layout. The plan cache keeps
// one plan per evaluated candidate, so a map or a per-task slice returning
// to the plan multiplies across a whole search; either shows up here as
// extra allocations.
func TestPlanPlacementAllocs(t *testing.T) {
	m, g, mp := benchProblem(t)
	topo := newTopology(m, g)
	if _, err := planPlacement(topo, mp); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		if _, err := planPlacement(topo, mp); err != nil {
			t.Fatal(err)
		}
	})
	if got > planAllocs {
		t.Fatalf("planPlacement allocates %.0f times per plan, want at most %d", got, planAllocs)
	}
}

// repeatsAllocs is the allocation count of one RunRepeats call over a
// warm plan and schedule: the pooled fold scratch and its memoized noise
// tapes carry every timeline, and the Summaries are the caller's.
const repeatsAllocs = 0

// TestRunRepeatsAllocs pins the flat measurement path, on every lane
// fold. A search measures every candidate through RunRepeats, so a map or
// a Result per repeat returning to the lane fold or to the scalar
// remainder multiplies across the whole search; either shows up here.
// With the Go lane fold 3 seeds take the scalar remainder and 7 a lane
// block; the kernel folds both in a block. The race detector's sync.Pool
// drops pooled scratch at random, so the count holds only without it.
func TestRunRepeatsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled fold scratch")
	}
	forEachLaneFold(t, func(t *testing.T, lf laneFold) {
		m, g, mp := benchProblem(t)
		inst := New(m, g)
		key := mp.Key()
		for _, n := range []int{3, 7} {
			seeds := repeatSeeds(n)
			out := make([]Summary, n)
			// RunKeyed caches the schedule; the first call warms the
			// fold scratch and its lane tapes.
			if _, err := inst.RunKeyed(key, mp, Config{NoiseSigma: 0.04, Seed: seeds[0]}); err != nil {
				t.Fatal(err)
			}
			if err := inst.runRepeats(lf, key, mp, 0.04, seeds, out); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(50, func() {
				if err := inst.runRepeats(lf, key, mp, 0.04, seeds, out); err != nil {
					t.Fatal(err)
				}
			})
			if got > repeatsAllocs {
				t.Errorf("RunRepeats over %d seeds allocates %.0f times per call, want at most %d", n, got, repeatsAllocs)
			}
		}
	})
}
