package driver

import (
	"math"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/profile"
	"automap/internal/search"
	"automap/internal/sim"
	"automap/internal/taskir"
	"automap/internal/telemetry"
)

// starvedMachine is one Shepard node whose FrameBuffer and Zero-Copy are
// cut to fb and zc bytes.
func starvedMachine(fb, zc int64) *machine.Machine {
	spec := cluster.ShepardNode()
	spec.FrameBufBytes = fb
	spec.ZeroCopyBytes = zc
	spec.Name = "shepard-starved"
	return cluster.Build(spec, 1)
}

// buildApp builds app at input for one node.
func buildApp(t *testing.T, app, input string) *taskir.Graph {
	t.Helper()
	a, err := apps.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	g, err := a.Build(input, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// starvedSearch runs CCD to convergence on app/input over
// starvedMachine(fb, zc), with or without pre-pruning, and returns the
// report and the profiles database the search recorded into.
func starvedSearch(t *testing.T, app, input string, fb, zc int64, prune bool) (*Report, *profile.DB) {
	t.Helper()
	g := buildApp(t, app, input)
	m := starvedMachine(fb, zc)
	opts := quickOpts()
	opts.PrePrune = prune
	opts.WarmDB = profile.NewDB()
	opts.Observer = &telemetry.Observer{Metrics: telemetry.NewRegistry()}
	rep, err := Search(m, g, search.NewCCD(), opts, search.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	return rep, opts.WarmDB
}

// failedSamples counts the database entries of mappings that could not
// execute.
func failedSamples(db *profile.DB) int {
	n := 0
	for _, key := range db.Keys() {
		if s, _ := db.Lookup(key); s.Failed {
			n++
		}
	}
	return n
}

// checkPruningExact asserts the pre-pruning contract on one pair of
// otherwise identical searches: the same optimum to the bit, some
// candidates pruned, and none of them recorded as a failed sample.
func checkPruningExact(t *testing.T, base, pruned *Report, prunedDB *profile.DB) {
	t.Helper()
	if got, want := pruned.Best.Key(), base.Best.Key(); got != want {
		t.Errorf("pruning changed the optimum mapping:\n  base   %s\n  pruned %s", want, got)
	}
	if math.Float64bits(pruned.FinalSec) != math.Float64bits(base.FinalSec) {
		t.Errorf("pruning changed the optimum cost: base=%g pruned=%g", base.FinalSec, pruned.FinalSec)
	}
	if pruned.Pruned == 0 {
		t.Error("no candidates pruned; the starved machine should make some GPU placements infeasible")
	}
	if n := failedSamples(prunedDB); n != 0 {
		t.Errorf("pruned search recorded %d failed samples; pruned candidates must never reach the database", n)
	}
}

// TestCCDPrePruning runs CCD on Stencil on a memory-starved node with and
// without pre-pruning. Pruning is exact — a candidate is pruned precisely
// when its launch would fail — so the trajectory and optimum are unchanged;
// only the failed launches disappear, and with them their database entries,
// their simulated cost, and the failure counter.
func TestCCDPrePruning(t *testing.T) {
	// A 500x500 grid is 2 MB. With 2.5 MiB of FrameBuffer and 1 MiB of
	// Zero-Copy, one whole grid fits on the device but the stencil task —
	// which commits grid_in, grid_out, and the halos (≈4 MB) — exceeds
	// FrameBuffer and Zero-Copy combined, so the search space mixes
	// feasible and infeasible GPU placements.
	base, baseDB := starvedSearch(t, "stencil", "500x500", 5<<19, 1<<20, false)
	pruned, prunedDB := starvedSearch(t, "stencil", "500x500", 5<<19, 1<<20, true)
	checkPruningExact(t, base, pruned, prunedDB)

	if failedSamples(baseDB) == 0 {
		t.Error("the unpruned search recorded no failed sample; the fixture should make some placements fail")
	}
	if base.Pruned != 0 || base.PruneChecked != 0 {
		t.Errorf("search without pre-pruning reports Pruned=%d PruneChecked=%d", base.Pruned, base.PruneChecked)
	}
	if pruned.Suggested != base.Suggested || pruned.Evaluated != base.Evaluated {
		t.Errorf("accounting differs: suggested %d/%d evaluated %d/%d",
			base.Suggested, pruned.Suggested, base.Evaluated, pruned.Evaluated)
	}
	if pruned.PruneChecked == 0 || pruned.PruneChecked > pruned.Pruned+pruned.Evaluated {
		t.Errorf("PruneChecked = %d, want 1..Pruned+Evaluated (%d)", pruned.PruneChecked, pruned.Pruned+pruned.Evaluated)
	}
	if pruned.SearchSec >= base.SearchSec {
		t.Errorf("pre-pruning saved no search time: base=%g pruned=%g", base.SearchSec, pruned.SearchSec)
	}
	if got := pruned.Metrics["search.eval.failures"]; got != 0 {
		t.Errorf("pruned search counted %g failed launches", got)
	}
	if got := pruned.Metrics["search.eval.sim_runs"]; got != base.Metrics["search.eval.sim_runs"] {
		t.Errorf("pruning changed the successful runs: base=%g pruned=%g", base.Metrics["search.eval.sim_runs"], got)
	}
	if _, ok := base.Metrics["search.eval.pruned"]; ok {
		t.Error("search without pre-pruning registered search.eval.pruned")
	}
	t.Logf("best %.4gs; search time %.3gs → %.3gs; pruned %d over %d checks",
		pruned.FinalSec, base.SearchSec, pruned.SearchSec, pruned.Pruned, pruned.PruneChecked)
}

// TestCCDCapacityPruning pins exact pruning on the starved machines the
// capacity analysis targets: on each, the pruned search finds the unpruned
// optimum to the bit without recording a failed sample.
func TestCCDCapacityPruning(t *testing.T) {
	cases := []struct {
		app     string
		input   string
		fbBytes int64
		zcBytes int64
	}{
		// Stencil commits ≈4 MB of grids and halos per sweep; 2.5 MiB of
		// FrameBuffer + 1 MiB of Zero-Copy rules out all-GPU placements.
		{"stencil", "500x500", 5 << 19, 1 << 20},
		// Circuit's n6400w25600 wires/nodes state outgrows a 1 MiB device.
		{"circuit", "n6400w25600", 1 << 19, 1 << 19},
	}
	for _, tc := range cases {
		t.Run(tc.app, func(t *testing.T) {
			base, _ := starvedSearch(t, tc.app, tc.input, tc.fbBytes, tc.zcBytes, false)
			pruned, prunedDB := starvedSearch(t, tc.app, tc.input, tc.fbBytes, tc.zcBytes, true)
			checkPruningExact(t, base, pruned, prunedDB)
			t.Logf("best %.4gs; pruned %d over %d checks", pruned.FinalSec, pruned.Pruned, pruned.PruneChecked)
		})
	}
}

// TestSearchFromSpaceFallsBackWhenDefaultOOMs gives the driver a space file
// on a machine where the default mapping does not fit. The space says
// nothing about the start, so the driver must plan the default's placement
// itself and start from safestStart instead; the starting mapping then
// executes in the final protocol, so StartSec is measured.
func TestSearchFromSpaceFallsBackWhenDefaultOOMs(t *testing.T) {
	g := buildApp(t, "stencil", "500x500")
	m := starvedMachine(5<<19, 1<<20)
	md := m.Model()
	if _, err := sim.PlanPlacement(m, g, mapping.Default(g, md)); err == nil {
		t.Fatal("the default mapping fits; the fixture needs one that does not")
	}
	sp, err := profile.Extract(m, g, safestStart(g, md), sim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SearchFromSpace(m, g, sp, search.NewCCD(), quickOpts(), search.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartSec <= 0 {
		t.Errorf("StartSec = %g: the search started from a mapping that does not execute", rep.StartSec)
	} else if rep.FinalSec > rep.StartSec {
		t.Errorf("best %g is slower than the start %g", rep.FinalSec, rep.StartSec)
	}
}
