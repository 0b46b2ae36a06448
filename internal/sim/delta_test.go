// Tests of delta classification: the bounds that make a candidate a
// fallback (flip count, dirty budget) and the OOM cases on either side, and
// the random CCD-style move the sim tests share.
package sim

import (
	"testing"

	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// applyRandomMove mutates mp with one CCD-style coordinate move: a
// distribution flip, or a (processor kind, argument, memory kind)
// assignment mirroring CCD.buildMove (SetProc + RebuildPriorityLists +
// SetArgMem), so every candidate the test generates is one the real
// search could propose.
func applyRandomMove(rng *xrand.RNG, g *taskir.Graph, md *machine.Model, mp *mapping.Mapping) {
	tid := taskir.TaskID(rng.Intn(len(g.Tasks)))
	t := g.Task(tid)
	if rng.Intn(4) == 0 || len(t.Args) == 0 {
		mp.SetDistribute(tid, rng.Intn(2) == 0)
		return
	}
	var kinds []machine.ProcKind
	for _, k := range md.ProcKinds {
		if t.HasVariant(k) {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		mp.SetDistribute(tid, rng.Intn(2) == 0)
		return
	}
	k := kinds[rng.Intn(len(kinds))]
	acc := md.Accessible(k)
	mp.SetProc(tid, k)
	mp.RebuildPriorityLists(md, tid)
	mp.SetArgMem(md, tid, rng.Intn(len(t.Args)), acc[rng.Intn(len(acc))])
}

// TestDeltaOOMIdentical pins classification around placement failures: an
// OOM candidate against a valid base is a fallback, and so is any
// candidate against an OOM base.
func TestDeltaOOMIdentical(t *testing.T) {
	m := cluster.Shepard(1)
	md := m.Model()
	g := simpleGraph(4, 20<<30) // 20 GB > 16 GB FB
	base := mapping.Default(g, md)
	oom := base.Clone()
	for id := range g.Tasks {
		dec := oom.Decision(taskir.TaskID(id))
		for a := range dec.Mems {
			dec.Mems[a] = []machine.MemKind{machine.FrameBuffer} // no fallback
		}
	}
	if _, err := Simulate(m, g, oom, Config{}); err == nil {
		t.Fatal("the FrameBuffer-only mapping fits; want *OOMError")
	} else if _, ok := err.(*OOMError); !ok {
		t.Fatalf("Simulate err = %v, want *OOMError", err)
	}

	d := NewDelta(New(m, g))
	d.SetBase(base)
	if d.Classify(oom.Key(), oom) {
		t.Fatal("OOM candidate classified incremental")
	}

	// OOM base: every candidate falls back.
	d2 := NewDelta(New(m, g))
	d2.SetBase(oom)
	cand := base.CloneCOW()
	cand.SetDistribute(0, !base.Decision(0).Distribute)
	if d2.Classify(cand.Key(), cand) {
		t.Fatal("candidate against OOM base classified incremental")
	}
}

// TestDeltaFallbackBoundary probes the classification thresholds exactly:
// candidates at maxFlips flips classify incrementally, maxFlips+1 fall
// back, and maxDirtyFrac = 0 makes any flip that touches a collection fall
// back.
func TestDeltaFallbackBoundary(t *testing.T) {
	nodes := 2
	m := cluster.Shepard(nodes)
	md := m.Model()
	g := appProblems(t, nodes)["pennant"]
	base := mapping.Default(g, md)

	d := NewDelta(New(m, g))
	d.SetBase(base)
	d.maxDirtyFrac = 1.0 // isolate the flip-count condition
	if len(g.Tasks) <= d.maxFlips {
		t.Fatalf("pennant has only %d tasks", len(g.Tasks))
	}
	for k := 1; k <= d.maxFlips+1; k++ {
		cand := base.CloneCOW()
		for i := 0; i < k; i++ {
			tid := taskir.TaskID(i)
			cand.SetDistribute(tid, !base.Decision(tid).Distribute)
		}
		key := cand.Key()
		if _, err := d.planFor(key, cand); err != nil {
			t.Fatalf("flips=%d: plan: %v", k, err)
		}
		wantInc := k <= d.maxFlips
		if got := d.Classify(key, cand); got != wantInc {
			t.Fatalf("flips=%d: Classify=%v, want %v", k, got, wantInc)
		}
	}

	// A zero dirty budget rejects any flip that touches a collection.
	d.maxDirtyFrac = 0
	var tid taskir.TaskID = -1
	for id := range g.Tasks {
		if len(g.Task(taskir.TaskID(id)).Args) > 0 {
			tid = taskir.TaskID(id)
			break
		}
	}
	if tid < 0 {
		t.Fatal("no task with arguments")
	}
	cand := base.CloneCOW()
	cand.SetDistribute(tid, !base.Decision(tid).Distribute)
	if d.Classify(cand.Key(), cand) {
		t.Fatal("maxDirtyFrac=0: flip classified incremental")
	}
}
