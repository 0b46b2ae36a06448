package analyze_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"automap/internal/analyze"
	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/analyze")

// cpuVariant returns a unit-efficiency CPU variant map.
func cpuVariant() map[machine.ProcKind]taskir.Variant {
	return map[machine.ProcKind]taskir.Variant{
		machine.CPU: {Kind: machine.CPU, WorkPerPoint: 100, Efficiency: 1},
	}
}

func bothVariants() map[machine.ProcKind]taskir.Variant {
	return map[machine.ProcKind]taskir.Variant{
		machine.CPU: {Kind: machine.CPU, WorkPerPoint: 100, Efficiency: 1},
		machine.GPU: {Kind: machine.GPU, WorkPerPoint: 100, Efficiency: 1},
	}
}

// tinyGPUMachine is a Shepard-like node whose GPU memories (Frame-Buffer and
// Zero-Copy, the only kinds GPUs can address) are shrunk to capacity bytes.
func tinyGPUMachine(capacity int64) *machine.Machine {
	spec := cluster.ShepardNode()
	spec.FrameBufBytes = capacity
	spec.ZeroCopyBytes = capacity
	return cluster.Build(spec, 1)
}

func cpuOnlyMachine() *machine.Machine {
	spec := cluster.ShepardNode()
	spec.GPUsPerNode = 0
	spec.Name = "shepard-cpu"
	return cluster.Build(spec, 1)
}

// passByName fetches a default pass by its Name().
func passByName(t testing.TB, name string) analyze.Pass {
	t.Helper()
	for _, p := range analyze.DefaultPasses() {
		if p.Name() == name {
			return p
		}
	}
	t.Fatalf("no default pass named %q", name)
	return nil
}

// TestPassGolden runs each pass over a scenario built to trigger its
// diagnostics and compares the rendered report against a golden file.
func TestPassGolden(t *testing.T) {
	tests := []struct {
		name string
		pass string
		ctx  func(t *testing.T) *analyze.Context
	}{
		{
			name: "race",
			pass: "race",
			ctx: func(t *testing.T) *analyze.Context {
				g := taskir.NewGraph("race-demo")
				block := g.AddCollection(taskir.Collection{Name: "block", Space: "grid", Lo: 0, Hi: 1 << 20, Partitioned: true})
				halo := g.AddCollection(taskir.Collection{Name: "halo", Space: "grid", Lo: 1<<20 - 4096, Hi: 1 << 20})
				g.AddTask(taskir.GroupTask{Name: "compute", Points: 4, Variants: cpuVariant(),
					Args: []taskir.Arg{{Collection: block.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 64}}})
				g.AddTask(taskir.GroupTask{Name: "exchange", Points: 4, Variants: cpuVariant(),
					Args: []taskir.Arg{{Collection: halo.ID, Privilege: taskir.WriteOnly, BytesPerPoint: 64}}})
				return &analyze.Context{Graph: g}
			},
		},
		{
			name: "variants",
			pass: "variants",
			ctx: func(t *testing.T) *analyze.Context {
				g := taskir.NewGraph("variants-demo")
				c := g.AddCollection(taskir.Collection{Name: "data", Space: "d", Lo: 0, Hi: 1 << 16, Partitioned: true})
				g.AddTask(taskir.GroupTask{Name: "gpu_kernel", Points: 4,
					Variants: map[machine.ProcKind]taskir.Variant{
						machine.GPU: {Kind: machine.GPU, WorkPerPoint: 100, Efficiency: 1},
					},
					Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 64}}})
				g.AddTask(taskir.GroupTask{Name: "portable", Points: 4, Variants: bothVariants(),
					Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 64}}})
				return &analyze.Context{Graph: g, Machine: cpuOnlyMachine()}
			},
		},
		{
			name: "legality",
			pass: "legality",
			ctx: func(t *testing.T) *analyze.Context {
				m := cluster.Shepard(1)
				g := taskir.NewGraph("legality-demo")
				c0 := g.AddCollection(taskir.Collection{Name: "a", Space: "d", Lo: 0, Hi: 1 << 16, Partitioned: true})
				c1 := g.AddCollection(taskir.Collection{Name: "b", Space: "d2", Lo: 0, Hi: 1 << 16, Partitioned: true})
				g.AddTask(taskir.GroupTask{Name: "broken", Points: 4, Variants: cpuVariant(),
					Args: []taskir.Arg{
						{Collection: c0.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 64},
						{Collection: c1.ID, Privilege: taskir.WriteOnly, BytesPerPoint: 64},
					}})
				g.AddTask(taskir.GroupTask{Name: "dup", Points: 4, Variants: cpuVariant(),
					Args: []taskir.Arg{{Collection: c0.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 64}}})
				mp := mapping.New(g)
				d := mp.Decision(0)
				d.Proc = machine.CPU
				d.Mems[0] = nil                                    // AM0005: empty
				d.Mems[1] = []machine.MemKind{machine.FrameBuffer} // AM0005: CPU cannot address FB
				d2 := mp.Decision(1)
				d2.Proc = machine.CPU
				d2.Mems[0] = []machine.MemKind{machine.SysMem, machine.SysMem} // AM0006: duplicate
				return &analyze.Context{Graph: g, Machine: m, Mapping: mp}
			},
		},
		{
			name: "distribute",
			pass: "distribute",
			ctx: func(t *testing.T) *analyze.Context {
				m := cluster.Shepard(2)
				g := taskir.NewGraph("distribute-demo")
				shared := g.AddCollection(taskir.Collection{Name: "params", Space: "p", Lo: 0, Hi: 1 << 12})
				g.AddTask(taskir.GroupTask{Name: "reduce", Points: 1, Variants: cpuVariant(),
					Args: []taskir.Arg{{Collection: shared.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 64}}})
				g.AddTask(taskir.GroupTask{Name: "bcast", Points: 8, Variants: cpuVariant(),
					Args: []taskir.Arg{{Collection: shared.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 64}}})
				mp := mapping.Default(g, m.Model()) // Distribute defaults to true
				return &analyze.Context{Graph: g, Machine: m, Mapping: mp}
			},
		},
		{
			name: "deadcode",
			pass: "deadcode",
			ctx: func(t *testing.T) *analyze.Context {
				g := taskir.NewGraph("deadcode-demo")
				in := g.AddCollection(taskir.Collection{Name: "in", Space: "i", Lo: 0, Hi: 1 << 16, Partitioned: true})
				out := g.AddCollection(taskir.Collection{Name: "out", Space: "o", Lo: 0, Hi: 1 << 16, Partitioned: true})
				g.AddCollection(taskir.Collection{Name: "unused", Space: "u", Lo: 0, Hi: 1 << 16})
				g.AddTask(taskir.GroupTask{Name: "producer", Points: 4, Variants: cpuVariant(),
					Args: []taskir.Arg{
						{Collection: in.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 64},
						{Collection: out.ID, Privilege: taskir.WriteOnly, BytesPerPoint: 64},
					}})
				return &analyze.Context{Graph: g}
			},
		},
		{
			name: "colocation",
			pass: "colocation",
			ctx: func(t *testing.T) *analyze.Context {
				m := cluster.Shepard(1)
				g := taskir.NewGraph("colocation-demo")
				left := g.AddCollection(taskir.Collection{Name: "left", Space: "grid", Lo: 0, Hi: 1 << 16, Partitioned: true})
				right := g.AddCollection(taskir.Collection{Name: "right", Space: "grid", Lo: 1 << 15, Hi: 3 << 15, Partitioned: true})
				g.AddTask(taskir.GroupTask{Name: "t1", Points: 4, Variants: cpuVariant(),
					Args: []taskir.Arg{{Collection: left.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 64}}})
				g.AddTask(taskir.GroupTask{Name: "t2", Points: 4, Variants: cpuVariant(),
					Args: []taskir.Arg{{Collection: right.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 64}}})
				md := m.Model()
				mp := mapping.Default(g, md)
				mp.SetArgMem(md, 0, 0, machine.SysMem)
				mp.SetArgMem(md, 1, 0, machine.ZeroCopy)
				return &analyze.Context{Graph: g, Machine: m, Mapping: mp}
			},
		},
		{
			name: "feasibility_oom",
			pass: "feasibility",
			ctx: func(t *testing.T) *analyze.Context {
				m := tinyGPUMachine(1 << 20) // 1 MiB FB and ZC
				g := taskir.NewGraph("oom-demo")
				c := g.AddCollection(taskir.Collection{Name: "data", Space: "d", Lo: 0, Hi: 2 << 20, Partitioned: true})
				g.AddTask(taskir.GroupTask{Name: "kernel", Points: 4, Variants: bothVariants(),
					Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 64}}})
				return &analyze.Context{Graph: g, Machine: m, Mapping: mapping.Default(g, m.Model())}
			},
		},
		{
			name: "feasibility_pressure",
			pass: "feasibility",
			ctx: func(t *testing.T) *analyze.Context {
				m := tinyGPUMachine(2 << 20) // 2 MiB: the 2,000,000-byte instance fills 95%
				g := taskir.NewGraph("pressure-demo")
				c := g.AddCollection(taskir.Collection{Name: "data", Space: "d", Lo: 0, Hi: 2_000_000, Partitioned: true})
				g.AddTask(taskir.GroupTask{Name: "kernel", Points: 4, Variants: bothVariants(),
					Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 64}}})
				return &analyze.Context{Graph: g, Machine: m, Mapping: mapping.Default(g, m.Model())}
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ctx := tt.ctx(t)
			rep := analyze.Analyze(ctx, passByName(t, tt.pass))
			got := rep.String()
			golden := filepath.Join("testdata", "analyze", tt.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("report mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestDefaultMappingsClean asserts the acceptance property the mapcheck CLI
// relies on: every bundled application with its default mapping is free of
// Error diagnostics on both machine models of the paper.
func TestDefaultMappingsClean(t *testing.T) {
	machines := map[string]*machine.Machine{
		"shepard": cluster.Shepard(1),
		"lassen":  cluster.Lassen(1),
	}
	for _, app := range apps.All() {
		for mname, m := range machines {
			t.Run(app.Name+"/"+mname, func(t *testing.T) {
				g, err := app.Build(app.Inputs[1][0], 1)
				if err != nil {
					t.Fatal(err)
				}
				rep := analyze.Check(m, g, mapping.Default(g, m.Model()))
				if rep.HasErrors() {
					t.Errorf("default mapping has Error diagnostics:\n%s", rep)
				}
			})
		}
	}
}

// TestInfeasibleFixture asserts the seeded-infeasible fixture machine makes
// the default stencil mapping statically infeasible with an AM0002
// diagnostic — the nonzero-exit case of the mapcheck CLI, exercised by
// scripts/ci.sh.
func TestInfeasibleFixture(t *testing.T) {
	spec, err := cluster.LoadSpec(filepath.Join("testdata", "analyze", "tiny_machine.json"))
	if err != nil {
		t.Fatal(err)
	}
	m := cluster.Build(spec, 1)
	g, err := apps.Get("stencil")
	if err != nil {
		t.Fatal(err)
	}
	graph, err := g.Build("500x500", 1)
	if err != nil {
		t.Fatal(err)
	}
	mp := mapping.Default(graph, m.Model())
	rep := analyze.Check(m, graph, mp)
	if !rep.HasErrors() {
		t.Fatalf("expected Error diagnostics on the tiny machine, got:\n%s", rep)
	}
	found := false
	for _, d := range rep.Diags {
		if d.Code == analyze.CodeOOM {
			found = true
			if !strings.HasPrefix(d.Format(graph), "AM0002 error") {
				t.Errorf("unexpected rendering: %s", d.Format(graph))
			}
		}
	}
	if !found {
		t.Errorf("no AM0002 diagnostic in:\n%s", rep)
	}
	if !analyze.Infeasible(m, graph, mp) {
		t.Error("Infeasible returned false for a mapping with a feasibility Error")
	}
}

// TestReportOrdering asserts diagnostics sort most severe first.
func TestReportOrdering(t *testing.T) {
	m := tinyGPUMachine(1 << 20)
	g := taskir.NewGraph("order-demo")
	c := g.AddCollection(taskir.Collection{Name: "data", Space: "d", Lo: 0, Hi: 2 << 20, Partitioned: true})
	g.AddCollection(taskir.Collection{Name: "unused", Space: "u", Lo: 0, Hi: 1 << 10})
	g.AddTask(taskir.GroupTask{Name: "kernel", Points: 4, Variants: bothVariants(),
		Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 64}}})
	rep := analyze.Check(m, g, mapping.Default(g, m.Model()))
	if !rep.HasErrors() {
		t.Fatalf("expected errors:\n%s", rep)
	}
	last := analyze.Error
	for _, d := range rep.Diags {
		if d.Severity > last {
			t.Fatalf("diagnostics not sorted by severity:\n%s", rep)
		}
		last = d.Severity
	}
}
