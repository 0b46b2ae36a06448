package taskir

import (
	"testing"
	"testing/quick"

	"automap/internal/machine"
)

func variants(work float64) map[machine.ProcKind]Variant {
	return map[machine.ProcKind]Variant{
		machine.CPU: {Kind: machine.CPU, WorkPerPoint: work, Efficiency: 1},
		machine.GPU: {Kind: machine.GPU, WorkPerPoint: work, Efficiency: 0.5},
	}
}

// chainGraph builds producer -> consumer over one collection.
func chainGraph(t *testing.T) (*Graph, *Collection) {
	t.Helper()
	g := NewGraph("chain")
	c := g.AddCollection(Collection{Name: "c", Space: "s", Lo: 0, Hi: 1000, Partitioned: true})
	g.AddTask(GroupTask{Name: "produce", Points: 4, Variants: variants(10),
		Args: []Arg{{Collection: c.ID, Privilege: WriteOnly, BytesPerPoint: 250}}})
	g.AddTask(GroupTask{Name: "consume", Points: 4, Variants: variants(10),
		Args: []Arg{{Collection: c.ID, Privilege: ReadOnly, BytesPerPoint: 250}}})
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return g, c
}

func TestPrivilegeSemantics(t *testing.T) {
	if !ReadOnly.Reads() || ReadOnly.Writes() {
		t.Error("ReadOnly wrong")
	}
	if WriteOnly.Reads() || !WriteOnly.Writes() {
		t.Error("WriteOnly wrong")
	}
	if !ReadWrite.Reads() || !ReadWrite.Writes() {
		t.Error("ReadWrite wrong")
	}
	if ReadOnly.String() != "RO" || WriteOnly.String() != "WO" || ReadWrite.String() != "RW" {
		t.Error("privilege strings wrong")
	}
}

func TestOverlapBytes(t *testing.T) {
	a := &Collection{Space: "s", Lo: 0, Hi: 100}
	b := &Collection{Space: "s", Lo: 50, Hi: 150}
	c := &Collection{Space: "s", Lo: 100, Hi: 200}
	d := &Collection{Space: "other", Lo: 0, Hi: 100}
	if got := a.OverlapBytes(b); got != 50 {
		t.Errorf("a∩b = %d, want 50", got)
	}
	if got := a.OverlapBytes(c); got != 0 {
		t.Errorf("a∩c = %d, want 0 (touching intervals are disjoint)", got)
	}
	if got := a.OverlapBytes(d); got != 0 {
		t.Errorf("different spaces overlap: %d", got)
	}
}

func TestOverlapBytesProperties(t *testing.T) {
	// Symmetric, bounded by both sizes, and self-overlap equals size.
	f := func(lo1, len1, lo2, len2 uint16) bool {
		a := &Collection{Space: "s", Lo: int64(lo1), Hi: int64(lo1) + int64(len1)}
		b := &Collection{Space: "s", Lo: int64(lo2), Hi: int64(lo2) + int64(len2)}
		w1, w2 := a.OverlapBytes(b), b.OverlapBytes(a)
		if w1 != w2 {
			return false
		}
		if w1 > a.SizeBytes() || w1 > b.SizeBytes() || w1 < 0 {
			return false
		}
		return a.OverlapBytes(a) == a.SizeBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDepsProducerConsumer(t *testing.T) {
	g, c := chainGraph(t)
	deps := g.Deps()
	if len(deps) != 1 {
		t.Fatalf("deps = %v, want 1 edge", deps)
	}
	d := deps[0]
	if d.From != 0 || d.To != 1 || d.Collection != c.ID {
		t.Fatalf("dep = %+v", d)
	}
}

func TestDepsAntiDependence(t *testing.T) {
	g := NewGraph("anti")
	c := g.AddCollection(Collection{Name: "c", Space: "s", Lo: 0, Hi: 100})
	g.AddTask(GroupTask{Name: "w1", Points: 1, Variants: variants(1),
		Args: []Arg{{Collection: c.ID, Privilege: WriteOnly}}})
	g.AddTask(GroupTask{Name: "r", Points: 1, Variants: variants(1),
		Args: []Arg{{Collection: c.ID, Privilege: ReadOnly}}})
	g.AddTask(GroupTask{Name: "w2", Points: 1, Variants: variants(1),
		Args: []Arg{{Collection: c.ID, Privilege: WriteOnly}}})
	deps := g.Deps()
	// w1->r (true), r->w2 (anti), w1->w2 (output).
	want := map[Dep]bool{
		{From: 0, To: 1, Collection: c.ID}: true,
		{From: 1, To: 2, Collection: c.ID}: true,
		{From: 0, To: 2, Collection: c.ID}: true,
	}
	if len(deps) != len(want) {
		t.Fatalf("deps = %v", deps)
	}
	for _, d := range deps {
		if !want[d] {
			t.Errorf("unexpected dep %+v", d)
		}
	}
}

func TestDepsThroughAliases(t *testing.T) {
	// Two collections with identical (Space, Lo, Hi) are aliases: data
	// flow crosses them.
	g := NewGraph("alias")
	c1 := g.AddCollection(Collection{Name: "view1", Space: "s", Lo: 0, Hi: 100})
	c2 := g.AddCollection(Collection{Name: "view2", Space: "s", Lo: 0, Hi: 100})
	g.AddTask(GroupTask{Name: "w", Points: 1, Variants: variants(1),
		Args: []Arg{{Collection: c1.ID, Privilege: WriteOnly}}})
	g.AddTask(GroupTask{Name: "r", Points: 1, Variants: variants(1),
		Args: []Arg{{Collection: c2.ID, Privilege: ReadOnly}}})
	if g.AliasID(c2.ID) != c1.ID {
		t.Fatalf("AliasID(%d) = %d, want %d", c2.ID, g.AliasID(c2.ID), c1.ID)
	}
	deps := g.Deps()
	if len(deps) != 1 || deps[0].From != 0 || deps[0].To != 1 {
		t.Fatalf("alias deps = %v", deps)
	}
}

func TestAliasIDPartialOverlapIsNotAlias(t *testing.T) {
	g := NewGraph("partial")
	c1 := g.AddCollection(Collection{Name: "a", Space: "s", Lo: 0, Hi: 100})
	c2 := g.AddCollection(Collection{Name: "b", Space: "s", Lo: 0, Hi: 50})
	if g.AliasID(c2.ID) == c1.ID {
		t.Fatal("sub-interval must not alias the full interval")
	}
}

func TestValidateErrors(t *testing.T) {
	g := NewGraph("bad")
	if err := g.Validate(); err == nil {
		t.Error("empty graph should fail")
	}
	c := g.AddCollection(Collection{Name: "c", Space: "s", Lo: 0, Hi: 10})
	g.AddTask(GroupTask{Name: "t", Points: 1,
		Args: []Arg{{Collection: c.ID, Privilege: ReadOnly}}})
	if err := g.Validate(); err == nil {
		t.Error("task without variants should fail")
	}

	g2 := NewGraph("badeff")
	c2 := g2.AddCollection(Collection{Name: "c", Space: "s", Lo: 0, Hi: 10})
	g2.AddTask(GroupTask{Name: "t", Points: 1,
		Variants: map[machine.ProcKind]Variant{machine.CPU: {Efficiency: 2}},
		Args:     []Arg{{Collection: c2.ID, Privilege: ReadOnly}}})
	if err := g2.Validate(); err == nil {
		t.Error("efficiency > 1 should fail")
	}

	g3 := NewGraph("badcol")
	g3.AddTask(GroupTask{Name: "t", Points: 1, Variants: variants(1),
		Args: []Arg{{Collection: 99, Privilege: ReadOnly}}})
	if err := g3.Validate(); err == nil {
		t.Error("unknown collection should fail")
	}

	g4, _ := chainGraph(t)
	g4.Iterations = 0
	if err := g4.Validate(); err == nil {
		t.Error("zero iterations should fail")
	}
}

func TestLaunchOrderValidation(t *testing.T) {
	g, _ := chainGraph(t)
	g.Launch = []TaskID{0, 0}
	if err := g.Validate(); err == nil {
		t.Error("duplicate launch entries should fail")
	}
	// Reversed launch order is legal: dependences are recomputed from
	// the new order (the read now happens before the write, leaving
	// only an anti-dependence).
	g.Launch = []TaskID{1, 0}
	g.depsOK = false
	if err := g.Validate(); err != nil {
		t.Errorf("reversed launch order should validate: %v", err)
	}
	deps := g.Deps()
	if len(deps) != 1 || deps[0].From != 1 || deps[0].To != 0 {
		t.Errorf("reversed-order deps = %v, want anti-dependence 1->0", deps)
	}
	g.Launch = nil
	g.depsOK = false
	if err := g.Validate(); err != nil {
		t.Errorf("restored graph should validate: %v", err)
	}
}

func TestTotalFootprintMergesOverlaps(t *testing.T) {
	g := NewGraph("fp")
	g.AddCollection(Collection{Name: "a", Space: "s", Lo: 0, Hi: 100})
	g.AddCollection(Collection{Name: "b", Space: "s", Lo: 50, Hi: 150}) // overlaps a
	g.AddCollection(Collection{Name: "c", Space: "u", Lo: 0, Hi: 40})
	if got := g.TotalFootprintBytes(); got != 150+40 {
		t.Fatalf("TotalFootprintBytes = %d, want 190", got)
	}
}

func TestNumCollectionArgs(t *testing.T) {
	g, _ := chainGraph(t)
	if got := g.NumCollectionArgs(); got != 2 {
		t.Fatalf("NumCollectionArgs = %d, want 2", got)
	}
}

func TestVariantKindsSorted(t *testing.T) {
	g, _ := chainGraph(t)
	ks := g.Task(0).VariantKinds()
	if len(ks) != 2 || ks[0] != machine.CPU || ks[1] != machine.GPU {
		t.Fatalf("VariantKinds = %v", ks)
	}
	if !g.Task(0).HasVariant(machine.GPU) {
		t.Fatal("HasVariant(GPU) = false")
	}
}

func TestDepsCacheInvalidation(t *testing.T) {
	g, c := chainGraph(t)
	before := len(g.Deps())
	g.AddTask(GroupTask{Name: "extra", Points: 1, Variants: variants(1),
		Args: []Arg{{Collection: c.ID, Privilege: ReadOnly, BytesPerPoint: 10}}})
	after := len(g.Deps())
	if after <= before {
		t.Fatalf("deps not recomputed after AddTask: %d -> %d", before, after)
	}
}
