package search

import (
	"testing"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/taskir"
)

func TestColocationMovesOverlappingCollections(t *testing.T) {
	p := searchProblem(t)
	og := p.Overlap.Clone()
	cand := p.Start.Clone()
	// Decision: t0 stays GPU, its pa argument (arg 0) moves to ZeroCopy.
	cand.SetArgMem(p.Model, 0, 0, machine.ZeroCopy)
	newColocator(p, og).apply(cand, 0, 0, machine.GPU, machine.ZeroCopy)

	// pb aliases pa, so t1's pb argument must follow to ZeroCopy.
	if got := cand.Decision(1).PrimaryMem(0); got != machine.ZeroCopy {
		t.Fatalf("overlapping collection not co-located: %v", got)
	}
	if err := cand.Validate(p.Graph, p.Model); err != nil {
		t.Fatalf("co-located mapping invalid: %v", err)
	}
}

func TestColocationRespectsAccessibility(t *testing.T) {
	// Force the overlap partner's task to CPU-only: co-locating into
	// Frame-Buffer is impossible, so the fixed point must leave a valid
	// mapping (partner re-homed to an addressable kind).
	p := searchProblem(t)
	t1 := p.Graph.Task(1)
	delete(t1.Variants, machine.GPU)
	start := p.Start.Clone()
	start.Sanitize(p.Graph, p.Model)

	og := p.Overlap.Clone()
	cand := start.Clone()
	cand.SetProc(0, machine.GPU)
	cand.RebuildPriorityLists(p.Model, 0)
	cand.SetArgMem(p.Model, 0, 0, machine.FrameBuffer)
	newColocator(p, og).apply(cand, 0, 0, machine.GPU, machine.FrameBuffer)

	if err := cand.Validate(p.Graph, p.Model); err != nil {
		t.Fatalf("mapping invalid after constrained co-location: %v", err)
	}
	if cand.Decision(1).Proc != machine.CPU {
		t.Fatal("CPU-only task moved off its only variant")
	}
}

func TestColocationMovesTasksToAccessNewKind(t *testing.T) {
	// When the partner CAN move to the initiating kind, Algorithm 2
	// line 12 moves it there.
	p := searchProblem(t)
	start := p.Start.Clone()
	// Put t1 on CPU first so its pb primary is a CPU-only kind.
	start.SetProc(1, machine.CPU)
	start.RebuildPriorityLists(p.Model, 1)
	start.SetArgMem(p.Model, 1, 0, machine.SysMem)

	og := p.Overlap.Clone()
	cand := start.Clone()
	cand.SetArgMem(p.Model, 0, 0, machine.FrameBuffer)
	newColocator(p, og).apply(cand, 0, 0, machine.GPU, machine.FrameBuffer)

	if err := cand.Validate(p.Graph, p.Model); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	d1 := cand.Decision(1)
	if d1.Proc != machine.GPU || d1.PrimaryMem(0) != machine.FrameBuffer {
		t.Fatalf("partner should follow to GPU+FB, got %v/%v", d1.Proc, d1.PrimaryMem(0))
	}
}

func TestColocationNoOpWithoutEdges(t *testing.T) {
	p := searchProblem(t)
	og := p.Overlap.Clone()
	og.PruneLightest(og.NumEdges()) // final rotation: constraints lifted
	cand := p.Start.Clone()
	before := cand.Decision(1).PrimaryMem(0)
	cand.SetArgMem(p.Model, 0, 0, machine.ZeroCopy)
	newColocator(p, og).apply(cand, 0, 0, machine.GPU, machine.ZeroCopy)
	if got := cand.Decision(1).PrimaryMem(0); got != before {
		t.Fatalf("co-location changed unrelated decision with no edges: %v", got)
	}
}

func TestColocationTerminates(t *testing.T) {
	// A dense alias clique must still reach a fixed point quickly.
	g := taskir.NewGraph("clique")
	both := map[machine.ProcKind]taskir.Variant{
		machine.CPU: {Efficiency: 1},
		machine.GPU: {Efficiency: 1},
	}
	var cols []*taskir.Collection
	for i := 0; i < 8; i++ {
		cols = append(cols, g.AddCollection(taskir.Collection{
			Name: "v", Space: "shared", Lo: 0, Hi: 100,
		}))
	}
	for i := 0; i < 8; i++ {
		g.AddTask(taskir.GroupTask{Name: "t", Points: 2, Variants: both,
			Args: []taskir.Arg{{Collection: cols[i].ID, Privilege: taskir.ReadWrite, BytesPerPoint: 10}}})
	}
	md := machine.NewModel("m", map[machine.ProcKind][]machine.MemKind{
		machine.CPU: {machine.SysMem, machine.ZeroCopy},
		machine.GPU: {machine.FrameBuffer, machine.ZeroCopy},
	})
	p := &Problem{Graph: g, Model: md, Overlap: overlap.Build(g)}
	mp := mapping.Default(g, md)
	newColocator(p, p.Overlap).apply(mp, 0, 0, machine.GPU, machine.FrameBuffer)
	if err := mp.Validate(g, md); err != nil {
		t.Fatalf("clique fixed point invalid: %v", err)
	}
	// All aliased args must share Frame-Buffer.
	for i := 0; i < 8; i++ {
		if got := mp.Decision(taskir.TaskID(i)).PrimaryMem(0); got != machine.FrameBuffer {
			t.Fatalf("task %d arg in %v, want FrameBuffer", i, got)
		}
	}
}
