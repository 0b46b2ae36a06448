package search

import (
	"math"
	"reflect"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

func TestRandomSearchImproves(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	startCost := ev.cost(p.Start)
	out := NewRandom().Search(p, ev, Budget{MaxSuggestions: 500})
	if out.BestSec >= startCost {
		t.Fatalf("random best %v did not improve on start %v", out.BestSec, startCost)
	}
	if err := out.Best.Validate(p.Graph, p.Model); err != nil {
		t.Fatalf("random proposed invalid best: %v", err)
	}
}

func TestRandomProposesOnlyValidMappings(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out := NewRandom().Search(p, ev, Budget{MaxSuggestions: 300})
	// The fake evaluator returns +Inf for invalid mappings and caches
	// them; a valid-only proposer never produces one.
	for key, cost := range ev.cache {
		if math.IsInf(cost, 1) {
			t.Fatalf("invalid mapping proposed (key %s)", key)
		}
	}
	_ = out
}

func TestAnnealImprovesAndEscapesLocalOptima(t *testing.T) {
	p := searchProblem(t)
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	startCost := ev.cost(p.Start)
	out := NewAnneal().Search(p, ev, Budget{MaxSuggestions: 3000})
	if out.BestSec >= startCost {
		t.Fatalf("anneal best %v did not improve on start %v", out.BestSec, startCost)
	}
	if err := out.Best.Validate(p.Graph, p.Model); err != nil {
		t.Fatalf("anneal best invalid: %v", err)
	}
}

func TestAnnealRespectsTunable(t *testing.T) {
	p := searchProblem(t)
	p.Tunable = []taskir.TaskID{1}
	ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
	out := NewAnneal().Search(p, ev, Budget{MaxSuggestions: 500})
	for _, id := range []taskir.TaskID{0, 2, 3} {
		if out.Best.Decision(id).Proc != p.Start.Decision(id).Proc ||
			out.Best.Decision(id).Distribute != p.Start.Decision(id).Distribute {
			t.Fatalf("non-tunable task %d moved", id)
		}
	}
}

func TestExtraAlgorithmNames(t *testing.T) {
	if NewRandom().Name() != "AM-Random" || NewAnneal().Name() != "AM-Anneal" {
		t.Fatal("names wrong")
	}
}

func TestCCDBeatsRandomAndAnneal(t *testing.T) {
	run := func(alg Algorithm, budget Budget) float64 {
		p := searchProblem(t)
		ev := newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1})
		return alg.Search(p, ev, budget).BestSec
	}
	ccd := run(NewCCD(), Budget{})
	rnd := run(NewRandom(), Budget{MaxSuggestions: 2000})
	ann := run(NewAnneal(), Budget{MaxSuggestions: 2000})
	if ccd > rnd || ccd > ann {
		t.Fatalf("CCD (%v) should be at least as good as random (%v) and anneal (%v)", ccd, rnd, ann)
	}
}

// TestMutateOneLeavesParentIntact chains annealing proposals the way an
// accepting walk does (cur = cand). mutateOne takes copy-on-write clones,
// so a proposal shares all but its moved decision with its parent; the
// move must never write through to the parent, and must touch at most one
// task decision.
func TestMutateOneLeavesParentIntact(t *testing.T) {
	const nodes = 2
	m := cluster.Shepard(nodes)
	md := m.Model()
	for _, name := range []string{"pennant", "htr", "circuit"} {
		app, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := app.Build(app.Inputs[nodes][0], nodes)
		if err != nil {
			t.Fatal(err)
		}
		p := &Problem{Graph: g, Model: md, Start: mapping.Default(g, md)}
		rng := xrand.New(11)
		root := p.Start.Clone()
		rootKey := root.Key()
		cur := root
		for step := 0; step < 500; step++ {
			key, snap := cur.Key(), cur.Clone()
			cand := mutateOne(p, cur, rng)
			if got := cur.Key(); got != key {
				t.Fatalf("%s step %d: parent key changed from %q to %q", name, step, key, got)
			}
			moved := 0
			for i := 0; i < snap.NumTasks(); i++ {
				id := taskir.TaskID(i)
				if !reflect.DeepEqual(cur.Decision(id), snap.Decision(id)) {
					t.Fatalf("%s step %d: parent decision %d changed", name, step, i)
				}
				if !reflect.DeepEqual(cand.Decision(id), snap.Decision(id)) {
					moved++
				}
			}
			if moved > 1 {
				t.Fatalf("%s step %d: proposal moved %d task decisions, want at most 1", name, step, moved)
			}
			cur = cand
		}
		if got := root.Key(); got != rootKey {
			t.Fatalf("%s: the walk's root mapping changed", name)
		}
	}
}
