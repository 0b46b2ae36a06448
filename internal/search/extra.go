// Additional baseline search algorithms beyond the paper's three. The
// AutoMap framework "supports the use of different search algorithms to
// propose candidate mappings" (Section 4); these two are the standard
// autotuning baselines a practitioner would reach for first, and they give
// the Figure 9 comparison more context:
//
//   - Random: uniform sampling of *valid* mappings (unlike the OpenTuner
//     ensemble it never proposes invalid configurations);
//   - Anneal: simulated annealing over single-decision moves, which CAN
//     accept cost-increasing moves — the capability the paper notes a
//     strict-improvement search lacks — but without CCD's coordination.

package search

import (
	"math"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// Random is uniform random search over valid mappings.
type Random struct{}

// NewRandom returns the random-search baseline.
func NewRandom() *Random { return &Random{} }

// Name identifies the algorithm.
func (*Random) Name() string { return "AM-Random" }

// randomValid draws a uniformly random valid mapping: a variant kind per
// task, a distribution bit, and an accessible memory kind per argument.
// Non-tunable tasks keep the start's decisions.
func randomValid(p *Problem, rng *xrand.RNG) *mapping.Mapping {
	mp := p.Start.Clone()
	tun := p.tunableSet()
	for _, t := range p.Graph.Tasks {
		if tun != nil && !tun[t.ID] {
			continue
		}
		kinds := availableKinds(p, t)
		if len(kinds) == 0 {
			continue
		}
		mp.SetProc(t.ID, kinds[rng.Intn(len(kinds))])
		mp.SetDistribute(t.ID, rng.Intn(2) == 0)
		mp.RebuildPriorityLists(p.Model, t.ID)
		acc := p.Model.Accessible(mp.Decision(t.ID).Proc)
		for a := range t.Args {
			mp.SetArgMem(p.Model, t.ID, a, acc[rng.Intn(len(acc))])
		}
	}
	return mp
}

// availableKinds returns the task's variant kinds present on the machine.
func availableKinds(p *Problem, t *taskir.GroupTask) []machine.ProcKind {
	var out []machine.ProcKind
	for _, k := range t.VariantKinds() {
		if p.Model.HasProcKind(k) {
			out = append(out, k)
		}
	}
	return out
}

// Search samples valid mappings until the budget is exhausted.
func (r *Random) Search(p *Problem, ev Evaluator, budget Budget) *Outcome {
	rng := xrand.New(p.Seed ^ 0x5eedf00d)
	tr := newTracker(p, ev)
	tr.source = r.Name()
	tr.test(p.Start.Clone())
	for {
		reason := budget.reason(ev, tr.suggested)
		if reason != "" {
			return tr.outcome(reason)
		}
		tr.test(randomValid(p, rng))
	}
}

// Anneal is simulated annealing over single-decision moves.
type Anneal struct {
	// StartTemp and EndTemp bound the geometric temperature schedule,
	// expressed as fractions of the starting mapping's cost.
	StartTemp, EndTemp float64
	// Steps is the schedule length (the cooling rate follows from the
	// temperatures and step count).
	Steps int
}

// NewAnneal returns simulated annealing with a schedule suited to the
// benchmark applications.
func NewAnneal() *Anneal {
	return &Anneal{StartTemp: 0.2, EndTemp: 0.002, Steps: 2000}
}

// Name identifies the algorithm.
func (*Anneal) Name() string { return "AM-Anneal" }

// mutateOne applies one random valid move to a copy of mp: flip the
// distribution bit, change the processor kind, or re-home one argument.
// The copy is copy-on-write, so the proposal shares every decision but the
// moved one with mp.
func mutateOne(p *Problem, mp *mapping.Mapping, rng *xrand.RNG) *mapping.Mapping {
	out := mp.CloneCOW()
	tasks := p.Graph.Tasks
	tun := p.tunableSet()
	// Pick a tunable task.
	for tries := 0; tries < 64; tries++ {
		t := tasks[rng.Intn(len(tasks))]
		if tun != nil && !tun[t.ID] {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			out.SetDistribute(t.ID, !out.Decision(t.ID).Distribute)
		case 1:
			kinds := availableKinds(p, t)
			if len(kinds) == 0 {
				continue
			}
			out.SetProc(t.ID, kinds[rng.Intn(len(kinds))])
			out.RebuildPriorityLists(p.Model, t.ID)
		case 2:
			if len(t.Args) == 0 {
				continue
			}
			a := rng.Intn(len(t.Args))
			acc := p.Model.Accessible(out.Decision(t.ID).Proc)
			out.SetArgMem(p.Model, t.ID, a, acc[rng.Intn(len(acc))])
		}
		return out
	}
	return out
}

// Search runs the annealing schedule. Unlike the tracker-driven
// strict-improvement algorithms, annealing keeps a separate "current"
// state that may be worse than the best seen.
func (an *Anneal) Search(p *Problem, ev Evaluator, budget Budget) *Outcome {
	rng := xrand.New(p.Seed ^ 0xa99ea1)
	tr := newTracker(p, ev)
	tr.source = an.Name()

	cur := p.Start.Clone()
	tr.test(cur)
	curCost := tr.bestSec
	if math.IsInf(curCost, 1) {
		curCost = 1e6 // unexecutable start; any executable move accepts
	}
	t0 := an.StartTemp * curCost
	t1 := an.EndTemp * curCost
	if t0 <= 0 || t1 <= 0 || t1 > t0 {
		t0, t1 = 0.2*curCost, 0.002*curCost
	}
	steps := an.Steps
	if steps < 1 {
		steps = 1
	}
	cool := math.Pow(t1/t0, 1/float64(steps))

	temp := t0
	for step := 0; step < steps; step++ {
		if reason := budget.reason(ev, tr.suggested); reason != "" {
			return tr.outcome(reason)
		}
		cand := mutateOne(p, cur, rng)
		res, _ := tr.testEval(cand)
		// Metropolis acceptance.
		if !math.IsInf(res.MeanSec, 1) {
			delta := res.MeanSec - curCost
			if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
				cur = cand
				curCost = res.MeanSec
			}
		}
		temp *= cool
	}
	// The annealing schedule ran to completion within the budget.
	return tr.outcome(StopConverged)
}
