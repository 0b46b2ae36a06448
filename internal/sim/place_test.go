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
