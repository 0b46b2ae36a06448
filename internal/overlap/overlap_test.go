package overlap

import (
	"testing"
	"testing/quick"

	"automap/internal/machine"
	"automap/internal/taskir"
)

// overlapGraph builds three collections: a and b alias the same interval,
// h overlaps a partially, u is disjoint.
func overlapGraph(t testing.TB) *taskir.Graph {
	g := taskir.NewGraph("og")
	v := map[machine.ProcKind]taskir.Variant{machine.CPU: {Efficiency: 1}}
	a := g.AddCollection(taskir.Collection{Name: "a", Space: "s", Lo: 0, Hi: 100})
	b := g.AddCollection(taskir.Collection{Name: "b", Space: "s", Lo: 0, Hi: 100})
	h := g.AddCollection(taskir.Collection{Name: "h", Space: "s", Lo: 80, Hi: 120})
	u := g.AddCollection(taskir.Collection{Name: "u", Space: "other", Lo: 0, Hi: 50})
	g.AddTask(taskir.GroupTask{Name: "t0", Points: 1, Variants: v, Args: []taskir.Arg{
		{Collection: a.ID, Privilege: taskir.ReadWrite},
		{Collection: u.ID, Privilege: taskir.ReadOnly},
	}})
	g.AddTask(taskir.GroupTask{Name: "t1", Points: 1, Variants: v, Args: []taskir.Arg{
		{Collection: b.ID, Privilege: taskir.ReadOnly},
		{Collection: h.ID, Privilege: taskir.ReadOnly},
	}})
	return g
}

func TestBuildEdges(t *testing.T) {
	g := overlapGraph(t)
	og := Build(g)
	// Edges: (a,b) w=100, (a,h) w=20, (b,h) w=20.
	if og.NumEdges() != 3 {
		t.Fatalf("edges = %v", og.Edges())
	}
	for _, e := range og.Edges() {
		if e.A >= e.B {
			t.Errorf("edge not normalized: %+v", e)
		}
	}
	if !og.Connected(0, 1) || !og.Connected(1, 0) {
		t.Error("a-b not connected (or not symmetric)")
	}
	if og.Connected(0, 3) {
		t.Error("disjoint collections connected")
	}
	weights := map[[2]taskir.CollectionID]int64{}
	for _, e := range og.Edges() {
		weights[[2]taskir.CollectionID{e.A, e.B}] = e.Weight
	}
	if weights[[2]taskir.CollectionID{0, 1}] != 100 {
		t.Errorf("alias edge weight = %d, want 100", weights[[2]taskir.CollectionID{0, 1}])
	}
	if weights[[2]taskir.CollectionID{0, 2}] != 20 {
		t.Errorf("partial edge weight = %d, want 20", weights[[2]taskir.CollectionID{0, 2}])
	}
}

func TestPruneLightestOrder(t *testing.T) {
	g := overlapGraph(t)
	og := Build(g)
	removed := og.PruneLightest(2)
	if len(removed) != 2 {
		t.Fatalf("removed = %d", len(removed))
	}
	// Removed edges are reported in (A, B) order with their weights.
	for _, e := range removed {
		if e.Weight != 20 {
			t.Errorf("removed edge %+v, want weight 20", e)
		}
	}
	if len(removed) == 2 && !(removed[0].A < removed[1].A || (removed[0].A == removed[1].A && removed[0].B < removed[1].B)) {
		t.Errorf("removed edges out of (A,B) order: %+v", removed)
	}
	// The two weight-20 edges go first; the alias edge survives.
	if og.NumEdges() != 1 {
		t.Fatalf("edges after prune = %d", og.NumEdges())
	}
	e := og.Edges()[0]
	if e.Weight != 100 {
		t.Fatalf("surviving edge = %+v, want the heaviest", e)
	}
	if og.OriginalNumEdges() != 3 {
		t.Fatalf("original edges = %d", og.OriginalNumEdges())
	}
}

func TestPruneMoreThanAvailable(t *testing.T) {
	og := Build(overlapGraph(t))
	if removed := og.PruneLightest(99); len(removed) != 3 {
		t.Fatalf("removed = %d", len(removed))
	}
	if og.NumEdges() != 0 {
		t.Fatal("edges remain")
	}
	if removed := og.PruneLightest(1); len(removed) != 0 {
		t.Fatal("pruning an empty graph removed something")
	}
}

func TestCloneIndependent(t *testing.T) {
	og := Build(overlapGraph(t))
	cp := og.Clone()
	cp.PruneLightest(3)
	if og.NumEdges() != 3 {
		t.Fatal("pruning the clone affected the original")
	}
	if cp.OriginalNumEdges() != 3 {
		t.Fatal("clone lost original edge count")
	}
}

func TestOverlapSet(t *testing.T) {
	g := overlapGraph(t)
	og := Build(g)
	// O[(t0, a)]: t0's a itself, plus t1's b and h (both overlap a).
	set := og.OverlapSet(0)
	if len(set) != 3 {
		t.Fatalf("overlap set = %v", set)
	}
	want := map[TaskArg]bool{
		{Task: 0, Arg: 0, Collection: 0}: true,
		{Task: 1, Arg: 0, Collection: 1}: true,
		{Task: 1, Arg: 1, Collection: 2}: true,
	}
	for _, ta := range set {
		if !want[ta] {
			t.Errorf("unexpected member %+v", ta)
		}
	}
	// A clone serves its own sets: pruning it leaves the original's
	// memoized set intact.
	cp := og.Clone()
	cp.PruneLightest(3)
	if got := og.OverlapSet(0); len(got) != 3 {
		t.Fatalf("original's set after pruning a clone = %v", got)
	}
	// After pruning everything, only the pair itself remains.
	og.PruneLightest(3)
	set = og.OverlapSet(0)
	if len(set) != 1 || set[0].Task != 0 || set[0].Arg != 0 {
		t.Fatalf("post-prune overlap set = %v", set)
	}
}

func TestPruneNeverIncreasesEdges(t *testing.T) {
	f := func(steps []uint8) bool {
		og := Build(overlapGraph(t))
		prev := og.NumEdges()
		for _, s := range steps {
			og.PruneLightest(int(s) % 3)
			if og.NumEdges() > prev {
				return false
			}
			prev = og.NumEdges()
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPruneDeterministicTieBreak(t *testing.T) {
	// Two equal-weight edges: pruning one must always pick the same.
	a := Build(overlapGraph(t))
	b := Build(overlapGraph(t))
	a.PruneLightest(1)
	b.PruneLightest(1)
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("divergent prune")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("divergent prune: %+v vs %+v", ea[i], eb[i])
		}
	}
}
