package driver

import (
	"math"
	"reflect"
	"testing"

	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/search"
	"automap/internal/taskir"
)

// retainProbe runs an algorithm against the driver's own Evaluator,
// wrapped so the test sees every commit. With all set it lifts the
// retention bound before the first commit, which makes the run retain
// every committed mapping.
type retainProbe struct {
	search.Algorithm
	all bool

	ev       *Evaluator
	atCommit map[string]*mapping.Mapping // deep clone of each key at its commit
	maxTop   int                         // most mappings retained at once
}

func (p *retainProbe) Search(prob *search.Problem, ev search.Evaluator, budget search.Budget) *search.Outcome {
	p.ev = ev.(*Evaluator)
	p.atCommit = make(map[string]*mapping.Mapping)
	if p.all {
		p.ev.top.n = math.MaxInt
	}
	return p.Algorithm.Search(prob, &probeEvaluator{Evaluator: p.ev, p: p}, budget)
}

// probeEvaluator hands the driver a private copy of each candidate and,
// once Evaluate returns, flips every distribution bit of that copy
// through the setters, as a search reusing its candidate buffer would.
// A retained mapping that aliases the caller's copy changes with it.
type probeEvaluator struct {
	*Evaluator
	p *retainProbe
}

func (e *probeEvaluator) Evaluate(mp *mapping.Mapping) search.Evaluation {
	key := mp.Key()
	_, known := e.DB.Lookup(key)
	c := mp.Clone()
	res := e.Evaluator.Evaluate(c)
	if !known {
		e.p.atCommit[key] = mp.Clone()
	}
	e.p.maxTop = max(e.p.maxTop, len(e.top.top))
	for id := range c.NumTasks() {
		tid := taskir.TaskID(id)
		c.SetDistribute(tid, !c.Decision(tid).Distribute)
	}
	return res
}

// TestFinalistsRetained checks the driver's finalist retention over a
// full annealing search and a full CCD search: it never holds more than
// FinalCandidates mappings, each retained mapping still equals (as a deep
// Clone, which drops the copy-on-write flags) the deep clone taken at its
// commit although the caller mutated its object afterwards, and the
// report equals that of a run that retains every committed mapping.
func TestFinalistsRetained(t *testing.T) {
	m := cluster.Shepard(2)
	g := driverGraph(t)
	opts := quickOpts()
	for _, alg := range []search.Algorithm{search.NewAnneal(), search.NewCCD()} {
		run := func(all bool) (*Report, *retainProbe) {
			p := &retainProbe{Algorithm: alg, all: all}
			rep, err := Search(m, g, p, opts, search.Budget{})
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			return rep, p
		}
		rep, p := run(false)
		valid := 0
		for _, key := range p.ev.DB.Keys() {
			if s, _ := p.ev.DB.Lookup(key); !s.Failed {
				valid++
			}
		}
		if valid <= opts.FinalCandidates {
			t.Fatalf("%s: %d executable mappings committed, too few to exercise the bound of %d", alg.Name(), valid, opts.FinalCandidates)
		}
		if p.maxTop > opts.FinalCandidates || len(p.ev.top.top) != opts.FinalCandidates {
			t.Errorf("%s: retained up to %d mappings, %d at the end; want at most %d, %d at the end",
				alg.Name(), p.maxTop, len(p.ev.top.top), opts.FinalCandidates, opts.FinalCandidates)
		}
		for _, f := range p.ev.top.top {
			if !reflect.DeepEqual(f.mp.Clone(), p.atCommit[f.key]) {
				t.Errorf("%s: retained mapping %s changed after its commit", alg.Name(), f.key)
			}
		}

		all, pAll := run(true)
		if len(pAll.ev.top.top) != valid {
			t.Errorf("%s: retain-everything run kept %d mappings, want all %d", alg.Name(), len(pAll.ev.top.top), valid)
		}
		if !reflect.DeepEqual(rep, all) {
			t.Errorf("%s: report differs from a run that retains everything:\n%+v\n%+v", alg.Name(), rep, all)
		}
	}
}
