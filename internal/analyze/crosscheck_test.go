package analyze_test

import (
	"errors"
	"testing"

	"automap/internal/analyze"
	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapper"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/xrand"
)

// TestFeasibilityMatchesSimulator asserts the zero-drift property of the
// shared placement helper: for every bundled application, on both machine
// models, and for several mappings — including ones that OOM — the static
// feasibility verdict (analyze.Infeasible via sim.PlanPlacement) agrees
// exactly with sim.Simulate, and on success the committed memory accounting
// is identical. The walk/ subtests (checkWalks) extend the verdict
// agreement to random search walks on memory-starved machines.
func TestFeasibilityMatchesSimulator(t *testing.T) {
	machines := map[string]func() *machine.Machine{
		"shepard": func() *machine.Machine { return cluster.Shepard(1) },
		"lassen":  func() *machine.Machine { return cluster.Lassen(1) },
		// A memory-starved machine so the OOM side of the agreement is
		// exercised too.
		"tiny": func() *machine.Machine { return tinyGPUMachine(8 << 20) },
	}
	for _, app := range apps.All() {
		g, err := app.Build(app.Inputs[1][0], 1)
		if err != nil {
			t.Fatal(err)
		}
		for mname, build := range machines {
			m := build()
			md := m.Model()
			mappings := map[string]*mapping.Mapping{
				"default": mapping.Default(g, md),
				"allzc":   mapper.AllZeroCopy(g, md),
			}
			for mpName, mp := range mappings {
				t.Run(app.Name+"/"+mname+"/"+mpName, func(t *testing.T) {
					plan, planErr := sim.PlanPlacement(m, g, mp)
					res, simErr := sim.Simulate(m, g, mp, sim.Config{})
					if (planErr != nil) != (simErr != nil) {
						t.Fatalf("verdicts disagree: plan=%v sim=%v", planErr, simErr)
					}
					if analyze.Infeasible(m, g, mp) != (simErr != nil) {
						t.Fatalf("Infeasible disagrees with Simulate (sim err: %v)", simErr)
					}
					if planErr != nil {
						var a, b *sim.OOMError
						if !errors.As(planErr, &a) || !errors.As(simErr, &b) {
							t.Fatalf("non-OOM failures: plan=%v sim=%v", planErr, simErr)
						}
						if a.Task != b.Task || a.Collection != b.Collection || a.Node != b.Node {
							t.Fatalf("OOM locations disagree: plan=%v sim=%v", a, b)
						}
						return
					}
					for _, k := range []machine.MemKind{machine.SysMem, machine.ZeroCopy, machine.FrameBuffer} {
						if plan.PeakMemBytes()[k] != res.PeakMemBytes[k] {
							t.Errorf("%s peak bytes disagree: plan=%d sim=%d",
								k, plan.PeakMemBytes()[k], res.PeakMemBytes[k])
						}
					}
					if plan.Spills != res.Spills {
						t.Errorf("spill counts disagree: plan=%d sim=%d", plan.Spills, res.Spills)
					}
				})
			}
		}
	}
	checkWalks(t)
}

// checkWalks extends TestFeasibilityMatchesSimulator to the mappings a
// search actually visits. Driver pre-pruning prunes a candidate
// when it fails validation or the simulator's cached placement plan; that
// verdict must equal analyze.Infeasible on every mapping of seeded random
// CCD-style walks over two memory-starved machines. A step moves one task's
// processor kind (rebuilding its priority lists), one argument's primary
// memory (SetArgMem, or the raw SetArgMemRaw, which may leave the mapping
// invalid), or its distribution bit, and a third of the steps restore
// validity with Sanitize as the search does before it evaluates.
func checkWalks(t *testing.T) {
	starved := func(fb, zc int64) *machine.Machine {
		spec := cluster.ShepardNode()
		spec.FrameBufBytes = fb
		spec.ZeroCopyBytes = zc
		return cluster.Build(spec, 1)
	}
	machines := map[string]*machine.Machine{
		"fb2.5m-zc1m":   starved(5<<19, 1<<20),
		"fb512k-zc512k": starved(1<<19, 1<<19),
	}
	inputs := []struct{ app, input string }{
		{"stencil", "500x500"},
		{"circuit", "n12800w51200"},
		{"pennant", "320x90"},
		{"htr", "8x8y9z"},
	}
	const walks, steps = 10, 150
	for _, in := range inputs {
		app, err := apps.Get(in.app)
		if err != nil {
			t.Fatal(err)
		}
		g, err := app.Build(in.input, 1)
		if err != nil {
			t.Fatal(err)
		}
		for mname, m := range machines {
			t.Run("walk/"+in.app+"/"+mname, func(t *testing.T) {
				md := m.Model()
				inst := sim.New(m, g)
				var infeasible, invalid int
				for w := range walks {
					rng := xrand.New(uint64(w + 1))
					// Odd walks start from all-CPU in System memory,
					// which fits, even ones from the default mapping.
					mp := mapping.Default(g, md)
					if w%2 == 1 {
						for _, tk := range g.Tasks {
							mp.SetProc(tk.ID, machine.CPU)
							for a := range tk.Args {
								mp.SetArgMem(md, tk.ID, a, machine.SysMem)
							}
						}
					}
					for range steps {
						tk := g.Tasks[rng.Intn(len(g.Tasks))]
						switch rng.Intn(4) {
						case 0:
							mp.SetProc(tk.ID, machine.ProcKind(rng.Intn(machine.NumProcKinds)))
							mp.RebuildPriorityLists(md, tk.ID)
						case 1:
							mp.SetArgMem(md, tk.ID, rng.Intn(len(tk.Args)), machine.MemKind(rng.Intn(machine.NumMemKinds)))
						case 2:
							mp.SetArgMemRaw(tk.ID, rng.Intn(len(tk.Args)), machine.MemKind(rng.Intn(machine.NumMemKinds)))
						case 3:
							mp.SetDistribute(tk.ID, !mp.Decision(tk.ID).Distribute)
						}
						if rng.Intn(3) == 0 {
							mp.Sanitize(g, md)
						}
						bad := mp.Validate(g, md) != nil
						if bad {
							invalid++
						} else if _, err := inst.PlanPlacement(mp); err != nil {
							bad = true
						}
						if bad {
							infeasible++
						}
						if got := analyze.Infeasible(m, g, mp); got != bad {
							t.Fatalf("walk %d: Infeasible = %v, launch verdict %v, on\n%v", w, got, bad, mp)
						}
					}
				}
				// A walk that never left one side of the verdict would
				// compare nothing.
				if n := walks * steps; infeasible == 0 || infeasible == n || invalid == 0 || invalid == infeasible {
					t.Fatalf("walks too one-sided: %d mappings, %d infeasible, %d of them invalid", n, infeasible, invalid)
				}
				t.Logf("%d mappings: %d infeasible, %d of them invalid", walks*steps, infeasible, invalid)
			})
		}
	}
}
