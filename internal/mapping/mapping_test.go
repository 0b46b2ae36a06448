package mapping

import (
	"strings"
	"testing"
	"testing/quick"

	"automap/internal/machine"
	"automap/internal/taskir"
)

func testModel() *machine.Model {
	return machine.NewModel("m", map[machine.ProcKind][]machine.MemKind{
		machine.CPU: {machine.SysMem, machine.ZeroCopy},
		machine.GPU: {machine.FrameBuffer, machine.ZeroCopy},
	})
}

func testGraph(t testing.TB) *taskir.Graph {
	g := taskir.NewGraph("g")
	c1 := g.AddCollection(taskir.Collection{Name: "c1", Space: "s", Lo: 0, Hi: 100, Partitioned: true})
	c2 := g.AddCollection(taskir.Collection{Name: "c2", Space: "s2", Lo: 0, Hi: 200})
	both := map[machine.ProcKind]taskir.Variant{
		machine.CPU: {Efficiency: 1},
		machine.GPU: {Efficiency: 1},
	}
	cpuOnly := map[machine.ProcKind]taskir.Variant{machine.CPU: {Efficiency: 1}}
	g.AddTask(taskir.GroupTask{Name: "t0", Points: 2, Variants: both,
		Args: []taskir.Arg{
			{Collection: c1.ID, Privilege: taskir.WriteOnly},
			{Collection: c2.ID, Privilege: taskir.ReadOnly},
		}})
	g.AddTask(taskir.GroupTask{Name: "t1", Points: 2, Variants: cpuOnly,
		Args: []taskir.Arg{{Collection: c1.ID, Privilege: taskir.ReadOnly}}})
	if err := g.Validate(); err != nil {
		t.Fatalf("graph: %v", err)
	}
	return g
}

func TestDefaultIsValid(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	if err := mp.Validate(g, md); err != nil {
		t.Fatalf("default mapping invalid: %v", err)
	}
	// t0 has a GPU variant -> GPU + FrameBuffer primary.
	d0 := mp.Decision(0)
	if d0.Proc != machine.GPU || d0.PrimaryMem(0) != machine.FrameBuffer {
		t.Errorf("t0 decision = %+v", d0)
	}
	if !d0.Distribute {
		t.Error("default should distribute group tasks")
	}
	// t1 is CPU-only -> CPU + SysMem.
	d1 := mp.Decision(1)
	if d1.Proc != machine.CPU || d1.PrimaryMem(0) != machine.SysMem {
		t.Errorf("t1 decision = %+v", d1)
	}
}

func TestPriorityListContainsAllAccessible(t *testing.T) {
	md := testModel()
	pl := PriorityList(md, machine.GPU, machine.ZeroCopy)
	if len(pl) != 2 || pl[0] != machine.ZeroCopy {
		t.Fatalf("priority list = %v", pl)
	}
	// Primary not accessible by the kind: falls back to accessible set.
	pl = PriorityList(md, machine.CPU, machine.FrameBuffer)
	if len(pl) != 2 || pl[0] == machine.FrameBuffer {
		t.Fatalf("priority list with inaccessible primary = %v", pl)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	cp := mp.Clone()
	cp.SetProc(0, machine.CPU)
	cp.RebuildPriorityLists(md, 0)
	if mp.Decision(0).Proc != machine.GPU {
		t.Fatal("Clone shares state with original")
	}
	if mp.Equal(cp) {
		t.Fatal("mutated clone should differ")
	}
}

func TestKeyStableAndDiscriminating(t *testing.T) {
	g, md := testGraph(t), testModel()
	a := Default(g, md)
	b := Default(g, md)
	if a.Key() != b.Key() {
		t.Fatal("identical mappings must share a key")
	}
	b.SetDistribute(0, false)
	if a.Key() == b.Key() {
		t.Fatal("different mappings must have different keys")
	}
}

func TestKeyEqualIffCanonicalEqual(t *testing.T) {
	g, md := testGraph(t), testModel()
	f := func(proc0GPU, dist0, dist1 bool, mem0 uint8) bool {
		mp := Default(g, md)
		if !proc0GPU {
			mp.SetProc(0, machine.CPU)
			mp.RebuildPriorityLists(md, 0)
		}
		mp.SetDistribute(0, dist0)
		mp.SetDistribute(1, dist1)
		mks := md.Accessible(mp.Decision(0).Proc)
		mp.SetArgMem(md, 0, 0, mks[int(mem0)%len(mks)])

		other := mp.Clone()
		if (mp.Key() == other.Key()) != mp.Equal(other) {
			return false
		}
		other.SetDistribute(1, !dist1)
		return (mp.Key() == other.Key()) == mp.Equal(other)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsMissingVariant(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	mp.SetProc(1, machine.GPU) // t1 has no GPU variant
	if err := mp.Validate(g, md); err == nil {
		t.Fatal("expected variant error")
	}
}

func TestValidateRejectsInaccessibleMem(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	mp.SetArgMemRaw(1, 0, machine.FrameBuffer) // CPU task, FB arg
	if err := mp.Validate(g, md); err == nil {
		t.Fatal("expected accessibility error")
	}
}

func TestSanitizeRestoresValidity(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	mp.SetProc(1, machine.GPU)                 // invalid: no variant
	mp.SetArgMemRaw(0, 0, machine.SysMem)      // invalid for GPU task
	mp.SetArgMemRaw(1, 0, machine.FrameBuffer) // invalid for CPU task
	mp.Sanitize(g, md)
	if err := mp.Validate(g, md); err != nil {
		t.Fatalf("Sanitize left mapping invalid: %v", err)
	}
	if mp.Decision(1).Proc != machine.CPU {
		t.Error("Sanitize should return t1 to its only variant kind")
	}
}

func TestSetArgMemRebuildsFallbacks(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	mp.SetArgMem(md, 0, 0, machine.ZeroCopy)
	d := mp.Decision(0)
	if d.PrimaryMem(0) != machine.ZeroCopy {
		t.Fatalf("primary = %v", d.PrimaryMem(0))
	}
	if len(d.Mems[0]) < 2 {
		t.Fatalf("fallbacks missing: %v", d.Mems[0])
	}
	if err := mp.Validate(g, md); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildPriorityListsAfterProcMove(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	// Move t0 GPU->CPU: FrameBuffer primaries must be replaced.
	mp.SetProc(0, machine.CPU)
	mp.RebuildPriorityLists(md, 0)
	if err := mp.Validate(g, md); err != nil {
		t.Fatalf("invalid after proc move: %v", err)
	}
	if mp.Decision(0).PrimaryMem(0) == machine.FrameBuffer {
		t.Fatal("FrameBuffer primary survived a CPU move")
	}
	// ZeroCopy primary is accessible by both kinds and must be kept.
	mp.SetArgMem(md, 0, 0, machine.ZeroCopy)
	mp.SetProc(0, machine.GPU)
	mp.RebuildPriorityLists(md, 0)
	if mp.Decision(0).PrimaryMem(0) != machine.ZeroCopy {
		t.Fatal("accessible primary should be preserved across proc moves")
	}
}

func TestStringAndDescribe(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	if s := mp.String(); !strings.Contains(s, "GPU") {
		t.Errorf("String = %q", s)
	}
	d := mp.Describe(g)
	if !strings.Contains(d, "t0") || !strings.Contains(d, "c1=FB") {
		t.Errorf("Describe = %q", d)
	}
}

func TestNewHasEmptyDecisions(t *testing.T) {
	g := testGraph(t)
	mp := New(g)
	if mp.NumTasks() != 2 {
		t.Fatalf("NumTasks = %d", mp.NumTasks())
	}
	if len(mp.Decision(0).Mems) != 2 {
		t.Fatalf("arg slots = %d", len(mp.Decision(0).Mems))
	}
}

func TestComputeStats(t *testing.T) {
	g, md := testGraph(t), testModel()
	mp := Default(g, md)
	st := mp.ComputeStats(g)
	if st.TasksByProc[machine.GPU] != 1 || st.TasksByProc[machine.CPU] != 1 {
		t.Fatalf("TasksByProc = %v", st.TasksByProc)
	}
	if st.Distributed != 2 {
		t.Fatalf("Distributed = %d", st.Distributed)
	}
	total := 0
	for _, n := range st.ArgsByMem {
		total += n
	}
	if total != 3 {
		t.Fatalf("args counted = %d, want 3", total)
	}
	if s := st.String(); !strings.Contains(s, "1 CPU + 1 GPU") {
		t.Fatalf("String = %q", s)
	}
}
