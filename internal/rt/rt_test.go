package rt

import (
	"testing"
	"time"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/search"
	"automap/internal/taskir"
)

// rtGraph builds a small two-task pipeline: a compute-heavy solve and a
// launch-dominated light pass, sized so one execution takes a few ms.
func rtGraph() *taskir.Graph {
	g := taskir.NewGraph("rtprog")
	g.Iterations = 2
	state := g.AddCollection(taskir.Collection{
		Name: "state", Space: "rt.state", Lo: 0, Hi: 8 << 20, Partitioned: true,
	})
	out := g.AddCollection(taskir.Collection{
		Name: "out", Space: "rt.out", Lo: 0, Hi: 1 << 16,
	})
	g.AddTask(taskir.GroupTask{Name: "solve", Points: 4,
		Args: []taskir.Arg{
			{Collection: state.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 2 << 20},
			{Collection: out.ID, Privilege: taskir.WriteOnly, BytesPerPoint: 1 << 16},
		},
		Variants: map[machine.ProcKind]taskir.Variant{
			machine.CPU: {WorkPerPoint: 4e5, Efficiency: 1},
			machine.GPU: {WorkPerPoint: 4e5, Efficiency: 1},
		}})
	g.AddTask(taskir.GroupTask{Name: "touch", Points: 8,
		Args: []taskir.Arg{
			{Collection: out.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 16},
		},
		Variants: map[machine.ProcKind]taskir.Variant{
			machine.CPU: {WorkPerPoint: 1e3, Efficiency: 1},
			machine.GPU: {WorkPerPoint: 1e3, Efficiency: 1},
		}})
	return g
}

func TestExecuteRuns(t *testing.T) {
	m := DefaultMachine(1)
	g := rtGraph()
	ex := NewExecutor(m, g)
	mp := mapping.Default(g, m.Model())
	d, err := ex.Execute(mp)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 30*time.Second {
		t.Fatalf("duration = %v", d)
	}
}

func TestExecuteRejectsInvalidMapping(t *testing.T) {
	m := DefaultMachine(1)
	g := rtGraph()
	ex := NewExecutor(m, g)
	mp := mapping.Default(g, m.Model())
	mp.SetArgMemRaw(0, 0, machine.SysMem) // GPU task + SysMem: invalid
	if _, err := ex.Execute(mp); err == nil {
		t.Fatal("invalid mapping executed")
	}
}

func TestExecuteOOMAndFallback(t *testing.T) {
	m := DefaultMachine(1)
	m.Arenas[machine.FrameBuffer].Capacity = 1 << 20 // smaller than "state"
	g := rtGraph()
	ex := NewExecutor(m, g)
	md := m.Model()

	// Strict Frame-Buffer-only: OOM.
	strict := mapping.Default(g, md)
	for i := range g.Tasks {
		d := strict.Decision(taskir.TaskID(i))
		for a := range d.Mems {
			d.Mems[a] = []machine.MemKind{machine.FrameBuffer}
		}
	}
	_, err := ex.Execute(strict)
	if _, ok := err.(*OOMError); !ok {
		t.Fatalf("want OOMError, got %v", err)
	}

	// Priority lists spill to Zero-Copy and succeed.
	if _, err := ex.Execute(mapping.Default(g, md)); err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
}

// heavyGraph is rtGraph's solve alone at ten times the work per point.
// rtGraph's launch-bound touch pass costs the GPU pool 8 launch delays per
// iteration, which on a host with four or more cores outweighs the solve;
// here each point's compute is several launch delays long on the GPU pool,
// so the comparison measures heavy work on any host.
func heavyGraph() *taskir.Graph {
	g := taskir.NewGraph("rtheavy")
	g.Iterations = 2
	state := g.AddCollection(taskir.Collection{
		Name: "state", Space: "rt.state", Lo: 0, Hi: 8 << 20, Partitioned: true,
	})
	g.AddTask(taskir.GroupTask{Name: "solve", Points: 4,
		Args: []taskir.Arg{
			{Collection: state.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 2 << 20},
		},
		Variants: map[machine.ProcKind]taskir.Variant{
			machine.CPU: {WorkPerPoint: 4e6, Efficiency: 1},
			machine.GPU: {WorkPerPoint: 4e6, Efficiency: 1},
		}})
	return g
}

func TestGPUPoolFasterOnHeavyWork(t *testing.T) {
	m := DefaultMachine(1)
	g := heavyGraph()
	ex := NewExecutor(m, g)
	md := m.Model()
	gpu := mapping.Default(g, md)
	cpu := mapping.Default(g, md)
	for i := range g.Tasks {
		cpu.SetProc(taskir.TaskID(i), machine.CPU)
		cpu.RebuildPriorityLists(md, taskir.TaskID(i))
	}
	best := func(mp *mapping.Mapping) time.Duration {
		min := time.Hour
		for i := 0; i < 3; i++ {
			d, err := ex.Execute(mp)
			if err != nil {
				t.Fatal(err)
			}
			if d < min {
				min = d
			}
		}
		return min
	}
	// The "GPU" pool is 10x faster per worker; on the heavy solve it
	// should win even paying launch overheads.
	if tg, tc := best(gpu), best(cpu); tg >= tc {
		t.Fatalf("GPU pool (%v) should beat CPU pool (%v) on heavy work", tg, tc)
	}
}

func TestEvaluatorCachesAndCounts(t *testing.T) {
	m := DefaultMachine(1)
	g := rtGraph()
	ev := NewEvaluator(NewExecutor(m, g), 2)
	mp := mapping.Default(g, m.Model())
	r1 := ev.Evaluate(mp)
	if r1.Cached || r1.Failed || r1.MeanSec <= 0 {
		t.Fatalf("first evaluation = %+v", r1)
	}
	r2 := ev.Evaluate(mp.Clone())
	if !r2.Cached {
		t.Fatal("repeat not cached")
	}
	if ev.Suggested != 2 || ev.Evaluated != 1 {
		t.Fatalf("counters = %d/%d", ev.Suggested, ev.Evaluated)
	}
	if ev.SearchTimeSec() <= 0 {
		t.Fatal("no search time accounted")
	}
}

// TestCCDOnRealRuntime is the end-to-end check: CCD tuning real wall-clock
// measurements finds a mapping at least as fast as the default heuristic.
func TestCCDOnRealRuntime(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement test")
	}
	m := DefaultMachine(1)
	g := rtGraph()
	ex := NewExecutor(m, g)
	md := m.Model()
	start := mapping.Default(g, md)

	sp, err := ExtractSpace(ex, start)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ex, 3)
	prob := &search.Problem{
		Graph: g, Model: md, Space: sp,
		Overlap: overlap.Build(g),
		Start:   start, Seed: 1,
	}
	out := search.NewCCD().Search(prob, ev, search.Budget{MaxSuggestions: 60})
	if out.Best == nil {
		t.Fatal("no mapping found")
	}
	// Re-measure best and default with fresh runs (min of 3 to damp
	// scheduler noise).
	meas := func(mp *mapping.Mapping) time.Duration {
		min := time.Hour
		for i := 0; i < 3; i++ {
			d, err := ex.Execute(mp)
			if err != nil {
				t.Fatal(err)
			}
			if d < min {
				min = d
			}
		}
		return min
	}
	best := meas(out.Best)
	def := meas(start)
	if float64(best) > 1.3*float64(def) {
		t.Fatalf("tuned mapping (%v) much worse than default (%v)", best, def)
	}
	t.Logf("default %v -> tuned %v (%d real evaluations)", def, best, ev.Evaluated)
}

func TestPacedCopyRespectsBandwidth(t *testing.T) {
	dst := make([]byte, 1<<20)
	src := make([]byte, 1<<20)
	start := time.Now()
	pacedCopy(dst, src, 8<<20, 100e6) // 8 MiB at 100 MB/s => >= ~80ms
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Fatalf("copy too fast for pacing: %v", el)
	}
}

func TestModelAccessibility(t *testing.T) {
	md := DefaultMachine(1).Model()
	if md.CanAccess(machine.CPU, machine.FrameBuffer) {
		t.Fatal("CPU pool should not address the Frame-Buffer arena")
	}
	if md.CanAccess(machine.GPU, machine.SysMem) {
		t.Fatal("GPU pool should not address the System arena")
	}
	if !md.CanAccess(machine.GPU, machine.ZeroCopy) || !md.CanAccess(machine.CPU, machine.ZeroCopy) {
		t.Fatal("Zero-Copy must be shared")
	}
}

// TestSimAndRuntimeAgreeOnKindPreference is a substrate-consistency check:
// both the simulator (with a host-shaped machine spec) and the real runtime
// must agree that tiny launch-bound tasks favor the wide CPU pool and heavy
// compute favors the fast narrow GPU pool.
func TestSimAndRuntimeAgreeOnKindPreference(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement test")
	}
	// Heavy task: GPU should win in both substrates.
	heavy := taskir.NewGraph("agree-heavy")
	heavy.Iterations = 2
	hc := heavy.AddCollection(taskir.Collection{Name: "c", Space: "h", Lo: 0, Hi: 1 << 20, Partitioned: true})
	heavy.AddTask(taskir.GroupTask{Name: "t", Points: 2,
		Args: []taskir.Arg{{Collection: hc.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 18}},
		Variants: map[machine.ProcKind]taskir.Variant{
			machine.CPU: {WorkPerPoint: 3e6, Efficiency: 1},
			machine.GPU: {WorkPerPoint: 3e6, Efficiency: 1},
		}})
	// Tiny many-point task: CPU pool should win in both substrates.
	tiny := taskir.NewGraph("agree-tiny")
	tiny.Iterations = 2
	tc := tiny.AddCollection(taskir.Collection{Name: "c", Space: "t", Lo: 0, Hi: 1 << 16, Partitioned: true})
	tiny.AddTask(taskir.GroupTask{Name: "t", Points: 16,
		Args: []taskir.Arg{{Collection: tc.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 12}},
		Variants: map[machine.ProcKind]taskir.Variant{
			machine.CPU: {WorkPerPoint: 1e3, Efficiency: 1},
			machine.GPU: {WorkPerPoint: 1e3, Efficiency: 1},
		}})

	rm := DefaultMachine(1)
	md := rm.Model()
	rtWinner := func(g *taskir.Graph) machine.ProcKind {
		ex := NewExecutor(rm, g)
		gpu := mapping.Default(g, md)
		cpu := mapping.Default(g, md)
		cpu.SetProc(0, machine.CPU)
		cpu.RebuildPriorityLists(md, 0)
		best := func(mp *mapping.Mapping) float64 {
			min := 1e18
			for i := 0; i < 5; i++ {
				d, err := ex.Execute(mp)
				if err != nil {
					t.Fatal(err)
				}
				if s := d.Seconds(); s < min {
					min = s
				}
			}
			return min
		}
		if best(gpu) < best(cpu) {
			return machine.GPU
		}
		return machine.CPU
	}

	if got := rtWinner(heavy); got != machine.GPU {
		t.Errorf("runtime prefers %v for heavy work, want GPU", got)
	}
	if got := rtWinner(tiny); got != machine.CPU {
		t.Errorf("runtime prefers %v for tiny tasks, want CPU", got)
	}
}
