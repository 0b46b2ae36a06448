package search

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/profile"
	"automap/internal/taskir"
)

// fakeEval scores mappings with a synthetic cost function so search
// algorithms can be tested hermetically (no simulator). Cost: each task
// prefers a specific processor kind and each argument a specific memory
// kind; the colocated pair's collections must share a memory kind to avoid
// a large penalty (the CCD motivating structure).
type fakeEval struct {
	g         *taskir.Graph
	md        *machine.Model
	cache     map[string]float64
	timeSec   float64
	evals     int
	penalized [2]taskir.CollectionID // pair that must be co-located
	perEval   float64
}

func newFakeEval(g *taskir.Graph, md *machine.Model, pair [2]taskir.CollectionID) *fakeEval {
	return &fakeEval{g: g, md: md, cache: make(map[string]float64), penalized: pair, perEval: 1}
}

func (f *fakeEval) cost(mp *mapping.Mapping) float64 {
	if err := mp.Validate(f.g, f.md); err != nil {
		return math.Inf(1)
	}
	total := 10.0
	pairMems := make(map[taskir.CollectionID]machine.MemKind)
	for _, t := range f.g.Tasks {
		d := mp.Decision(t.ID)
		// Even tasks prefer CPU, odd tasks GPU.
		want := machine.CPU
		if t.ID%2 == 1 {
			want = machine.GPU
		}
		if d.Proc != want && t.HasVariant(want) {
			total += 3
		}
		if !d.Distribute {
			total += 1
		}
		for a, arg := range t.Args {
			// Arguments prefer Zero-Copy in this synthetic cost.
			if d.PrimaryMem(a) != machine.ZeroCopy {
				total += 1
			}
			for _, pc := range f.penalized {
				if arg.Collection == pc {
					pairMems[arg.Collection] = d.PrimaryMem(a)
				}
			}
		}
	}
	if len(pairMems) == 2 && pairMems[f.penalized[0]] != pairMems[f.penalized[1]] {
		total += 50 // split co-location pair: big data-movement penalty
	}
	return total
}

func (f *fakeEval) Evaluate(mp *mapping.Mapping) Evaluation {
	key := mp.Key()
	if c, ok := f.cache[key]; ok {
		return Evaluation{MeanSec: c, Cached: true, Failed: math.IsInf(c, 1)}
	}
	c := f.cost(mp)
	f.cache[key] = c
	if math.IsInf(c, 1) {
		return Evaluation{MeanSec: c, Failed: true}
	}
	f.evals++
	f.timeSec += f.perEval
	return Evaluation{MeanSec: c}
}

func (f *fakeEval) SearchTimeSec() float64     { return f.timeSec }
func (f *fakeEval) ChargeOverhead(sec float64) { f.timeSec += sec }

// searchProblem builds a 4-task graph with an aliased collection pair.
func searchProblem(t testing.TB) *Problem {
	g := taskir.NewGraph("sp")
	both := map[machine.ProcKind]taskir.Variant{
		machine.CPU: {Efficiency: 1},
		machine.GPU: {Efficiency: 1},
	}
	// Aliased pair (same interval) -> full-weight overlap edge.
	pa := g.AddCollection(taskir.Collection{Name: "pa", Space: "shared", Lo: 0, Hi: 1000})
	pb := g.AddCollection(taskir.Collection{Name: "pb", Space: "shared", Lo: 0, Hi: 1000})
	c1 := g.AddCollection(taskir.Collection{Name: "c1", Space: "s1", Lo: 0, Hi: 400, Partitioned: true})
	c2 := g.AddCollection(taskir.Collection{Name: "c2", Space: "s2", Lo: 0, Hi: 600, Partitioned: true})
	g.AddTask(taskir.GroupTask{Name: "t0", Points: 4, Variants: both, Args: []taskir.Arg{
		{Collection: pa.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 100},
		{Collection: c1.ID, Privilege: taskir.WriteOnly, BytesPerPoint: 100},
	}})
	g.AddTask(taskir.GroupTask{Name: "t1", Points: 4, Variants: both, Args: []taskir.Arg{
		{Collection: pb.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 100},
		{Collection: c2.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 150},
	}})
	g.AddTask(taskir.GroupTask{Name: "t2", Points: 4, Variants: both, Args: []taskir.Arg{
		{Collection: c1.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 100},
	}})
	g.AddTask(taskir.GroupTask{Name: "t3", Points: 4, Variants: both, Args: []taskir.Arg{
		{Collection: c2.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 150},
	}})
	if err := g.Validate(); err != nil {
		t.Fatalf("graph: %v", err)
	}
	md := machine.NewModel("m", map[machine.ProcKind][]machine.MemKind{
		machine.CPU: {machine.SysMem, machine.ZeroCopy},
		machine.GPU: {machine.FrameBuffer, machine.ZeroCopy},
	})
	sp := &profile.Space{Application: "sp", Machine: "m"}
	for _, tk := range g.Tasks {
		sp.Tasks = append(sp.Tasks, profile.TaskInfo{
			ID: tk.ID, Name: tk.Name, Points: tk.Points,
			RuntimeSec: float64(10 - tk.ID), NumArgs: len(tk.Args),
		})
		for a, arg := range tk.Args {
			sp.Args = append(sp.Args, profile.ArgInfo{
				Task: tk.ID, Arg: a, Collection: arg.Collection,
				SizeBytes: g.Collection(arg.Collection).SizeBytes(),
			})
		}
	}
	return &Problem{
		Graph:   g,
		Model:   md,
		Space:   sp,
		Overlap: overlap.Build(g),
		Start:   mapping.Default(g, md),
		Seed:    7,
	}
}

func TestCCDImprovesOverStart(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	startCost := ev.cost(p.Start)
	out := NewCCD().Search(p, ev, Budget{})
	if out.Best == nil {
		t.Fatal("no best mapping")
	}
	if out.BestSec >= startCost {
		t.Fatalf("CCD best %v did not improve on start %v", out.BestSec, startCost)
	}
	if err := out.Best.Validate(p.Graph, p.Model); err != nil {
		t.Fatalf("CCD produced invalid mapping: %v", err)
	}
}

func TestCCDFindsOptimum(t *testing.T) {
	// The synthetic optimum: even tasks CPU, odd GPU, everything in
	// Zero-Copy, all distributed -> cost 10.
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out := NewCCD().Search(p, ev, Budget{})
	if out.BestSec != 10 {
		t.Fatalf("CCD best = %v, want 10 (the optimum)", out.BestSec)
	}
}

// TestCCDBeatsCDOnCoordinatedMoves reproduces the paper's Section 4.2
// argument: when two overlapping collections must move *together* (any
// single move pays the data-movement penalty and is rejected as a strict
// regression), CD gets stuck on a local optimum while CCD's co-location
// constraints make the joint move in one step.
func TestCCDBeatsCDOnCoordinatedMoves(t *testing.T) {
	p1 := searchProblem(t)
	ev1 := newFakeEval(p1.Graph, p1.Model, [2]taskir.CollectionID{0, 1})
	ccd := NewCCD().Search(p1, ev1, Budget{})

	p2 := searchProblem(t)
	ev2 := newFakeEval(p2.Graph, p2.Model, [2]taskir.CollectionID{0, 1})
	cd := NewCD().Search(p2, ev2, Budget{})

	if ccd.BestSec != 10 {
		t.Fatalf("CCD best = %v, want the optimum 10", ccd.BestSec)
	}
	if cd.BestSec <= ccd.BestSec {
		t.Fatalf("CD (%v) should be stuck above CCD's optimum (%v): no sequence of"+
			" strictly improving single moves crosses the co-location penalty", cd.BestSec, ccd.BestSec)
	}
}

func TestCDIsOneRotationOfCCD(t *testing.T) {
	// CD must suggest strictly fewer mappings than a 5-rotation CCD.
	p1 := searchProblem(t)
	ev1 := newFakeEval(p1.Graph, p1.Model, [2]taskir.CollectionID{0, 1})
	ccd := NewCCD().Search(p1, ev1, Budget{})

	p2 := searchProblem(t)
	ev2 := newFakeEval(p2.Graph, p2.Model, [2]taskir.CollectionID{0, 1})
	cd := NewCD().Search(p2, ev2, Budget{})

	if cd.Suggested >= ccd.Suggested {
		t.Fatalf("CD suggested %d >= CCD %d", cd.Suggested, ccd.Suggested)
	}
}

func TestBudgetStopsSearch(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out := NewCCD().Search(p, ev, Budget{MaxSuggestions: 5})
	// The budget is checked per task; allow the in-flight task to finish.
	if out.Suggested > 40 {
		t.Fatalf("budget ignored: %d suggestions", out.Suggested)
	}
	ev2 := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out2 := NewCCD().Search(p, ev2, Budget{MaxSearchSec: 3})
	if ev2.SearchTimeSec() > 40 {
		t.Fatalf("time budget ignored: %v", out2.Suggested)
	}
}

func TestNewAndBounded(t *testing.T) {
	for _, tc := range []struct {
		name, algo string
		bounded    bool
	}{
		{"ccd", "AM-CCD", false},
		{"cd", "AM-CD", false},
		{"ot", "AM-OT", true},
		{"random", "AM-Random", true},
		{"anneal", "AM-Anneal", false},
	} {
		alg, err := New(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() != tc.algo {
			t.Errorf("New(%q).Name() = %q, want %q", tc.name, alg.Name(), tc.algo)
		}
		want := 0.0
		if tc.bounded {
			want = 2 * 3600
		}
		if got := (Budget{}).Bounded(tc.name).MaxSearchSec; got != want {
			t.Errorf("%s: unbounded budget becomes %v s, want %v", tc.name, got, want)
		}
		if got := (Budget{MaxSuggestions: 10}).Bounded(tc.name).MaxSearchSec; got != 0 {
			t.Errorf("%s: a suggestion bound gained a time bound of %v s", tc.name, got)
		}
	}
	if _, err := New("gradient-descent"); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestCCDDeterministic(t *testing.T) {
	run := func() (*Outcome, int) {
		p := searchProblem(t)
		ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
		return NewCCD().Search(p, ev, Budget{}), ev.evals
	}
	a, ea := run()
	b, eb := run()
	if a.BestSec != b.BestSec || a.Suggested != b.Suggested || ea != eb {
		t.Fatalf("CCD not deterministic: (%v,%d,%d) vs (%v,%d,%d)",
			a.BestSec, a.Suggested, ea, b.BestSec, b.Suggested, eb)
	}
	if !a.Best.Equal(b.Best) {
		t.Fatal("CCD best mappings differ across runs")
	}
}

// recordingEval is fakeEval that logs the key of every Evaluate call.
type recordingEval struct {
	*fakeEval
	keys []string
}

func (r *recordingEval) Evaluate(mp *mapping.Mapping) Evaluation {
	r.keys = append(r.keys, mp.Key())
	return r.fakeEval.Evaluate(mp)
}

// prefetchingEval makes a recordingEval a BatchEvaluator. Prefetch measures
// nothing; it keeps the batch's keys so Evaluate can count the calls the
// latest batch covered.
type prefetchingEval struct {
	*recordingEval
	batches int
	batch   map[string]bool
	covered int
}

func (p *prefetchingEval) Prefetch(cands []*mapping.Mapping) {
	p.batches++
	p.batch = make(map[string]bool, len(cands))
	for _, c := range cands {
		p.batch[c.Key()] = true
	}
}

func (p *prefetchingEval) Evaluate(mp *mapping.Mapping) Evaluation {
	if p.batch[mp.Key()] {
		p.covered++
	}
	return p.recordingEval.Evaluate(mp)
}

// TestCCDPrefetchKeepsTrajectory runs CCD over the same recording
// evaluator with and without Prefetch: the Evaluate key sequence and the
// Outcome must be identical, every evaluation after the start must come
// from the latest prefetched batch, and some task must have re-batched
// after an accept.
func TestCCDPrefetchKeepsTrajectory(t *testing.T) {
	run := func(prefetch bool) (*Outcome, *recordingEval, *prefetchingEval) {
		p := searchProblem(t)
		rec := &recordingEval{fakeEval: newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})}
		if !prefetch {
			return NewCCD().Search(p, rec, Budget{}), rec, nil
		}
		pf := &prefetchingEval{recordingEval: rec}
		return NewCCD().Search(p, pf, Budget{}), rec, pf
	}
	seq, seqRec, _ := run(false)
	bat, batRec, pf := run(true)
	if !slices.Equal(seqRec.keys, batRec.keys) {
		t.Fatalf("Evaluate key sequences differ: %d calls without Prefetch, %d with", len(seqRec.keys), len(batRec.keys))
	}
	if !seq.Best.Equal(bat.Best) || seq.BestSec != bat.BestSec || seq.Suggested != bat.Suggested ||
		seq.Evaluated != bat.Evaluated || seq.StopReason != bat.StopReason || !reflect.DeepEqual(seq.Trace, bat.Trace) {
		t.Fatalf("outcomes differ: %+v without Prefetch, %+v with", seq, bat)
	}
	if pf.covered != len(batRec.keys)-1 {
		t.Errorf("%d of %d evaluations after the start were in the latest prefetched batch", pf.covered, len(batRec.keys)-1)
	}
	if sweeps := NewCCD().Rotations * len(searchProblem(t).Graph.Tasks); pf.batches <= sweeps {
		t.Errorf("%d batches for %d task sweeps: no sweep re-batched after an accept", pf.batches, sweeps)
	}
}

func TestTunableRestrictsCCD(t *testing.T) {
	p := searchProblem(t)
	p.Tunable = []taskir.TaskID{1, 3}
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out := NewCCD().Search(p, ev, Budget{})
	// Non-tunable tasks keep the starting decision.
	for _, id := range []taskir.TaskID{0, 2} {
		if out.Best.Decision(id).Proc != p.Start.Decision(id).Proc {
			t.Errorf("non-tunable task %d moved", id)
		}
	}
}

func TestOpenTunerFindsImprovement(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	startCost := ev.cost(p.Start)
	out := NewOpenTuner().Search(p, ev, Budget{MaxSuggestions: 2000})
	if out.BestSec >= startCost {
		t.Fatalf("OT best %v did not improve on start %v", out.BestSec, startCost)
	}
	if err := out.Best.Validate(p.Graph, p.Model); err != nil {
		t.Fatalf("OT best mapping invalid: %v", err)
	}
}

func TestOpenTunerSuggestsMoreThanItEvaluates(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out := NewOpenTuner().Search(p, ev, Budget{MaxSuggestions: 2000})
	if out.Suggested < 2000 {
		t.Fatalf("suggested = %d", out.Suggested)
	}
	if ev.evals >= out.Suggested/2 {
		t.Fatalf("OT evaluated %d of %d suggestions; expected heavy duplication/invalidity",
			ev.evals, out.Suggested)
	}
}

func TestOpenTunerChargesOverhead(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	ot := NewOpenTuner()
	ot.Search(p, ev, Budget{MaxSuggestions: 100})
	// ~100 proposals × OverheadSec of bookkeeping plus eval time.
	if ev.timeSec < 90*ot.OverheadSec {
		t.Fatalf("overhead not charged: %v", ev.timeSec)
	}
}

func TestCCDTracksTrace(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out := NewCCD().Search(p, ev, Budget{})
	if len(out.Trace) == 0 {
		t.Fatal("no trace points")
	}
	for i := 1; i < len(out.Trace); i++ {
		if out.Trace[i].BestSec > out.Trace[i-1].BestSec {
			t.Fatal("trace not monotone non-increasing")
		}
		if out.Trace[i].SearchSec < out.Trace[i-1].SearchSec {
			t.Fatal("trace time not monotone")
		}
	}
}

func TestSizeLog2(t *testing.T) {
	p := searchProblem(t)
	// 4 tasks × 2 kinds (log2=1 each) + 6 args × 1 bit = 10 bits.
	if got := SizeLog2(p.Graph, p.Model); got != 10 {
		t.Fatalf("SizeLog2 = %v, want 10", got)
	}
}
