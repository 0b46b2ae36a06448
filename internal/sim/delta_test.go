// Differential tests of the incremental path: a DeltaInstance must return
// byte-identical Results (and identical *OOMError outcomes) to a fresh
// full simulation for ANY candidate — bounded deltas served by the
// patcher, unbounded ones by the fallback — under random base mappings
// and random CCD-style move sequences on every bundled app.
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

// TestDeltaMatchesFullRandomFlips drives a DeltaInstance through random
// CCD-style trajectories on every bundled app: candidates with 1–4 moves
// against a moving base (periodically re-based like a search incumbent),
// each compared bit-for-bit against a fresh Simulate (a full recording in
// a new Instance) with noise, tracing, and copy logging on. Both the incremental and the fallback path must be
// exercised.
func TestDeltaMatchesFullRandomFlips(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 8
	}
	var incremental, fallback int
	for _, nodes := range []int{1, 2, 4} {
		for name, g := range appProblems(t, nodes) {
			m := cluster.Shepard(nodes)
			md := m.Model()
			base := mapping.Default(g, md)
			d := NewDelta(New(m, g))
			d.SetBase(base)
			rng := xrand.New(0xD5EA + uint64(nodes)*1009 + uint64(len(name)))
			cfg := Config{NoiseSigma: 0.04, Seed: 42, Trace: true, Explain: true}
			for trial := 0; trial < trials; trial++ {
				cand := base.CloneCOW()
				for f := 1 + rng.Intn(4); f > 0; f-- {
					applyRandomMove(rng, g, md, cand)
				}
				key := cand.Key()
				if d.Classify(key, cand) {
					incremental++
				} else {
					fallback++
				}
				want, werr := Simulate(m, g, cand, cfg)
				got, gerr := d.RunKeyed(key, cand, cfg)
				if werr != nil {
					if gerr == nil || gerr.Error() != werr.Error() {
						t.Fatalf("%s/%d trial %d: delta err %v, full err %v", name, nodes, trial, gerr, werr)
					}
					if _, ok := gerr.(*OOMError); !ok {
						t.Fatalf("%s/%d trial %d: delta err %T, want *OOMError", name, nodes, trial, gerr)
					}
					continue
				}
				if gerr != nil {
					t.Fatalf("%s/%d trial %d: delta err %v, full ok", name, nodes, trial, gerr)
				}
				requireSameResult(t, name+"/delta", got, want)
				if t.Failed() {
					t.Fatalf("%s/%d trial %d: delta mismatch", name, nodes, trial)
				}
				// Re-base periodically, like a search accepting an
				// improvement.
				if trial%5 == 4 {
					base = cand
					d.SetBase(base)
				}
			}
		}
	}
	if incremental == 0 {
		t.Fatal("no trial took the incremental path")
	}
	if fallback == 0 {
		t.Fatal("no trial took the fallback path")
	}
	t.Logf("incremental=%d fallback=%d", incremental, fallback)
}

// TestDeltaOOMIdentical pins the OOM parity cases: an OOM candidate
// against a valid base returns exactly the full path's *OOMError, and a
// valid candidate against an OOM base falls back and still matches.
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
	cfg := Config{NoiseSigma: 0.04, Seed: 3}

	_, werr := Simulate(m, g, oom, cfg)
	if _, ok := werr.(*OOMError); !ok {
		t.Fatalf("Simulate err = %v, want *OOMError", werr)
	}

	d := NewDelta(New(m, g))
	d.SetBase(base)
	if d.Classify(oom.Key(), oom) {
		t.Fatal("OOM candidate classified incremental")
	}
	res, gerr := d.RunKeyed(oom.Key(), oom, cfg)
	if res != nil || gerr == nil || gerr.Error() != werr.Error() {
		t.Fatalf("delta OOM: res=%v err=%v, want err %v", res, gerr, werr)
	}
	if _, ok := gerr.(*OOMError); !ok {
		t.Fatalf("delta OOM err type %T", gerr)
	}

	// OOM base: every candidate must fall back, with correct results.
	d2 := NewDelta(New(m, g))
	d2.SetBase(oom)
	cand := base.CloneCOW()
	cand.SetDistribute(0, !base.Decision(0).Distribute)
	if d2.Classify(cand.Key(), cand) {
		t.Fatal("candidate against OOM base classified incremental")
	}
	want, err := Simulate(m, g, cand, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.RunKeyed(cand.Key(), cand, cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "oom-base-fallback", got, want)
}

// TestDeltaFallbackBoundary probes the classification thresholds exactly:
// candidates at MaxFlips flips patch incrementally, MaxFlips+1 fall back,
// and MaxDirtyFrac = 0 forces any touching flip to fall back — with
// byte-identical results on both sides of every boundary.
func TestDeltaFallbackBoundary(t *testing.T) {
	nodes := 2
	m := cluster.Shepard(nodes)
	md := m.Model()
	g := appProblems(t, nodes)["pennant"]
	base := mapping.Default(g, md)
	cfg := Config{NoiseSigma: 0.04, Seed: 42, Trace: true, Explain: true}

	d := NewDelta(New(m, g))
	d.SetBase(base)
	d.MaxDirtyFrac = 1.0 // isolate the flip-count condition
	if len(g.Tasks) <= d.MaxFlips {
		t.Fatalf("pennant has only %d tasks", len(g.Tasks))
	}
	for k := 1; k <= d.MaxFlips+1; k++ {
		cand := base.CloneCOW()
		for i := 0; i < k; i++ {
			tid := taskir.TaskID(i)
			cand.SetDistribute(tid, !base.Decision(tid).Distribute)
		}
		key := cand.Key()
		plan, err := d.planFor(key, cand)
		if err != nil {
			t.Fatalf("flips=%d: plan: %v", k, err)
		}
		wantInc := k <= d.MaxFlips
		if got := d.Classify(key, cand); got != wantInc {
			t.Fatalf("flips=%d: Classify=%v, want %v", k, got, wantInc)
		}
		// tryPatch observes the patcher directly: a bounded delta must
		// produce a spliced schedule, an unbounded one must not.
		sch := d.tryPatch(&state{}, cand, plan)
		if (sch != nil) != wantInc {
			t.Fatalf("flips=%d: tryPatch=%v, want patched=%v", k, sch != nil, wantInc)
		}
		want, werr := Simulate(m, g, cand, cfg)
		if werr != nil {
			t.Fatalf("flips=%d: %v", k, werr)
		}
		got, gerr := d.RunKeyed(key, cand, cfg)
		if gerr != nil {
			t.Fatalf("flips=%d: %v", k, gerr)
		}
		requireSameResult(t, "boundary", got, want)
		if t.Failed() {
			t.Fatalf("flips=%d: mismatch", k)
		}
	}

	// A zero dirty budget rejects any flip that touches a collection.
	d.MaxDirtyFrac = 0
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
		t.Fatal("MaxDirtyFrac=0: flip classified incremental")
	}
	want, werr := Simulate(m, g, cand, cfg)
	if werr != nil {
		t.Fatal(werr)
	}
	got, gerr := d.RunKeyed(cand.Key(), cand, cfg)
	if gerr != nil {
		t.Fatal(gerr)
	}
	requireSameResult(t, "zero-dirty-frac", got, want)
}
