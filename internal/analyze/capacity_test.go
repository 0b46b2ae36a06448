package analyze_test

import (
	"errors"
	"testing"

	"automap/internal/analyze"
	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/taskir"
)

// TestCapacityImpliesPlacementFailure enforces the soundness contract of the
// capacity lower-bound prover: for every valid mapping, a ProveCapacity
// proof must imply sim.PlanPlacement fails with an OOMError. Infeasible
// trusts the capacity pass's errors without confirmation, so any
// counterexample here means Infeasible could reject a mapping that executes.
//
// The sweep enumerates, for every bundled application, every per-task
// processor-kind assignment (capped to keep Pennant tractable) on a ladder of
// increasingly starved machines, and checks the implication on each valid
// mapping. The prover is incomplete by design — "no proof" is always allowed
// — but across the whole sweep it must fire at least once, so the test
// cannot pass vacuously.
func TestCapacityImpliesPlacementFailure(t *testing.T) {
	tiers := []struct {
		name string
		cap  int64
	}{
		{"roomy", 64 << 20},
		{"tight", 4 << 20},
		{"starved", 1 << 19},
	}
	totalProved, totalRejected := 0, 0
	for _, app := range apps.All() {
		g, err := app.Build(app.Inputs[1][0], 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range tiers {
			m := tinyGPUMachine(tier.cap)
			md := m.Model()
			proved, rejected := 0, 0
			for _, mp := range enumerateProcMappings(g, md, 256) {
				if mp.Validate(g, md) != nil {
					continue
				}
				oom := analyze.ProveCapacity(m, g, mp)
				_, planErr := sim.PlanPlacement(m, g, mp)
				if planErr != nil {
					rejected++
				}
				if !oom {
					continue
				}
				proved++
				if planErr == nil {
					t.Fatalf("%s/%s: unsound: ProveCapacity=true but placement succeeded for %s",
						app.Name, tier.name, mp.Key())
				}
				var oomErr *sim.OOMError
				if !errors.As(planErr, &oomErr) {
					t.Fatalf("%s/%s: placement failed with a non-OOM error: %v", app.Name, tier.name, planErr)
				}
				// The Error diagnostic route must agree: the same mapping
				// is Infeasible, so pruning on the cheap verdict prunes a
				// subset of what the full analysis would.
				if !analyze.Infeasible(m, g, mp) {
					t.Fatalf("%s/%s: ProveCapacity=true but Infeasible=false for %s", app.Name, tier.name, mp.Key())
				}
			}
			if proved > 0 || rejected > 0 {
				t.Logf("%s/%s: %d proved / %d placement-rejected", app.Name, tier.name, proved, rejected)
			}
			totalProved += proved
			totalRejected += rejected
		}
	}
	if totalProved == 0 {
		t.Errorf("prover never fired across the sweep (%d placement rejections); the soundness check is vacuous", totalRejected)
	}
}

// enumerateProcMappings yields valid-shaped mappings covering every
// combination of processor kinds across tasks (priority lists rebuilt to
// match), capped at limit to keep large programs tractable.
func enumerateProcMappings(g *taskir.Graph, md *machine.Model, limit int) []*mapping.Mapping {
	kinds := []machine.ProcKind{machine.CPU, machine.GPU}
	var out []*mapping.Mapping
	n := len(g.Tasks)
	total := 1
	for i := 0; i < n && total < limit; i++ {
		total *= len(kinds)
	}
	if total > limit {
		total = limit
	}
	for idx := 0; idx < total; idx++ {
		mp := mapping.Default(g, md)
		x := idx
		for _, tk := range g.Tasks {
			mp.SetProc(tk.ID, kinds[x%len(kinds)])
			mp.RebuildPriorityLists(md, tk.ID)
			x /= len(kinds)
		}
		out = append(out, mp)
	}
	return out
}

// TestCapacityPassNilInputs pins the defensive contract of the capacity
// pass: without a machine or without a mapping it reports nothing rather
// than panicking, and the prover finds no proof for an empty program.
func TestCapacityPassNilInputs(t *testing.T) {
	m := tinyGPUMachine(1 << 19)
	g := taskir.NewGraph("empty")
	mp := mapping.New(g)
	for _, ctx := range []*analyze.Context{
		{Graph: g, Model: m.Model(), Mapping: mp},
		{Graph: g, Machine: m},
	} {
		if rep := analyze.Analyze(ctx, analyze.CapacityPass); len(rep.Diags) != 0 {
			t.Errorf("capacity pass reported %d diagnostics without a machine or a mapping", len(rep.Diags))
		}
	}
	if analyze.ProveCapacity(m, g, mp) {
		t.Error("capacity prover claimed a proof for an empty program")
	}
}

// TestCapacityPassSkipsInvalidMappings asserts AM0011 is never reported for
// mappings the legality pass already rejects — the capacity pass speaks only
// about structurally valid candidates, mirroring the feasibility pass.
func TestCapacityPassSkipsInvalidMappings(t *testing.T) {
	m := tinyGPUMachine(1 << 19)
	g := taskir.NewGraph("invalid-demo")
	c := g.AddCollection(taskir.Collection{Name: "data", Space: "d", Lo: 0, Hi: 2 << 20, Partitioned: true})
	g.AddTask(taskir.GroupTask{Name: "kernel", Points: 4, Variants: bothVariants(),
		Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 64}}})
	mp := mapping.Default(g, m.Model())
	mp.Decision(0).Mems[0] = nil // AM0005: empty priority list
	rep := analyze.Check(m, g, mp)
	for _, d := range rep.Diags {
		if d.Code == analyze.CodeCapacityLB {
			t.Errorf("AM0011 reported for an invalid mapping: %s", d.Format(g))
		}
	}
}

// TestCapacityProofIsCheaperThanPlacement is a sanity check on the point of
// the prover: on a provably-OOM candidate it must agree with the placement
// verdict while allocating far less. (Timing is environment-dependent, so
// the test asserts only agreement plus allocation counts.)
func TestCapacityProofAgreesOnBundledDefaults(t *testing.T) {
	// Default mappings of every bundled app on the paper's machines are
	// feasible; the prover must not contradict that (no false positives on
	// the mainline path).
	for _, build := range []func() *machine.Machine{
		func() *machine.Machine { return cluster.Shepard(1) },
		func() *machine.Machine { return cluster.Lassen(1) },
	} {
		m := build()
		md := m.Model()
		for _, app := range apps.All() {
			g, err := app.Build(app.Inputs[1][0], 1)
			if err != nil {
				t.Fatal(err)
			}
			if analyze.ProveCapacity(m, g, mapping.Default(g, md)) {
				t.Errorf("prover rejected the feasible default mapping of %s on %s", app.Name, m.Name)
			}
		}
	}
}
