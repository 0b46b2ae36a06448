// Static infeasibility pre-pruning: an Evaluator wrapper that consults the
// static analyzer before paying for simulation.

package search

import (
	"math"
	"sync"

	"automap/internal/analyze"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/telemetry"
)

// DefaultCheckCostSec is the simulated search time charged per fresh static
// check. The analyzer re-runs the simulator's placement pass, which costs
// microseconds of real time; 10ms of simulated time keeps the accounting
// honest while staying two orders of magnitude below the 1-second failed
// launch the driver charges for an OOM the search had to execute to
// discover.
const DefaultCheckCostSec = 0.01

// PruningEvaluator wraps an Evaluator with the static analyzer's
// infeasibility oracle (analyze.Infeasible): candidates that are statically
// unexecutable — they fail validation or cannot fit in memory under the
// simulator's own placement arithmetic — receive an immediate infinite-cost
// verdict without a single sim.Simulate call. Verdicts are cached by
// Mapping.Key(), so repeated suggestions of a doomed candidate cost nothing.
//
// Pruning is exact, not heuristic: the feasibility pass runs the placement
// pass the simulator itself uses, so a pruned candidate is precisely one the
// inner evaluator would have failed with an OOMError (after executing it).
// The search trajectory is therefore unchanged; only the wasted simulations
// are saved.
//
// Checks are two-staged. The capacity lower-bound prover
// (analyze.ProvablyOOM) runs first: a counting argument over irreducible
// per-node footprints that needs no placement walk and no allocation-heavy
// analysis, yet is sound — a positive verdict implies the feasibility pass
// would reject the mapping too. Only candidates it cannot settle pay for the
// full static analysis. The staging changes cost, never coverage: Checked
// and Pruned move exactly as before, and PrunedLB records how many pruned
// verdicts the cheap stage settled.
type PruningEvaluator struct {
	inner Evaluator
	m     *machine.Machine
	g     *taskir.Graph

	// CheckCostSec is charged to the search clock (via ChargeOverhead)
	// for every fresh static check. Defaults to DefaultCheckCostSec.
	CheckCostSec float64

	// verdict caches infeasibility per canonical mapping key. It is the
	// committed cache: only Evaluate writes it (and moves the counters).
	verdict map[string]pruneVerdict

	// spec caches verdicts computed speculatively by Prefetch, without
	// the counter/overhead side effects; Evaluate consults it so a fresh
	// check need not repeat the analysis, but still commits the check's
	// observable effects (Checked++, metrics, ChargeOverhead). specMu
	// guards it against overlapping Prefetch calls.
	specMu sync.Mutex
	spec   map[string]pruneVerdict

	// Checked counts fresh static checks; Pruned counts evaluations
	// answered statically (including cached re-suggestions of pruned
	// candidates). PrunedLB counts the subset of Pruned whose verdict
	// came from the capacity lower-bound prover alone, without running
	// the full analysis.
	Checked  int
	Pruned   int
	PrunedLB int

	// Metric instruments; nil (no-op) until SetObserver.
	mChecked  *telemetry.Counter
	mPruned   *telemetry.Counter
	mPrunedLB *telemetry.Counter
}

// pruneVerdict is one cached static verdict. lb records that the capacity
// lower-bound prover alone settled the question — the full analysis never
// ran — so the cheap path can be accounted separately (PrunedLB,
// search.eval.pruned_lb) without perturbing the Checked/Pruned counters the
// determinism goldens pin down.
type pruneVerdict struct {
	bad bool
	lb  bool
}

// check runs the two-stage static verdict: the allocation-light capacity
// lower-bound prover first (analyze.ProvablyOOM — sound, so a positive
// answer needs no confirmation), then the full executability analysis.
// Pruning stays exact either way: ProvablyOOM implies the feasibility pass
// would report the same mapping out of memory.
func (e *PruningEvaluator) check(mp *mapping.Mapping) pruneVerdict {
	if analyze.ProvablyOOM(e.m, e.g, mp) {
		return pruneVerdict{bad: true, lb: true}
	}
	return pruneVerdict{bad: analyze.Infeasible(e.m, e.g, mp)}
}

// NewPruningEvaluator wraps inner with static pre-pruning for program g on
// machine m.
func NewPruningEvaluator(inner Evaluator, m *machine.Machine, g *taskir.Graph) *PruningEvaluator {
	return &PruningEvaluator{
		inner:        inner,
		m:            m,
		g:            g,
		CheckCostSec: DefaultCheckCostSec,
		verdict:      make(map[string]pruneVerdict),
		spec:         make(map[string]pruneVerdict),
	}
}

// SetObserver attaches telemetry: fresh static checks and pruned verdicts
// are counted as search.eval.prune_checks and search.eval.pruned, with the
// capacity-prover subset broken out as search.eval.pruned_lb.
func (e *PruningEvaluator) SetObserver(obs *telemetry.Observer) {
	e.mChecked = obs.Counter("search.eval.prune_checks")
	e.mPruned = obs.Counter("search.eval.pruned")
	e.mPrunedLB = obs.Counter("search.eval.pruned_lb")
}

// Evaluate returns an immediate failed verdict for statically infeasible
// candidates and otherwise delegates to the inner evaluator.
func (e *PruningEvaluator) Evaluate(mp *mapping.Mapping) Evaluation {
	key := mp.Key()
	v, seen := e.verdict[key]
	if !seen {
		// A speculative verdict from Prefetch answers the analysis
		// question, but the check's observable effects still commit
		// here, exactly as if the analysis ran now.
		e.specMu.Lock()
		specV, specSeen := e.spec[key]
		if specSeen {
			delete(e.spec, key)
		}
		e.specMu.Unlock()
		if specSeen {
			v = specV
		} else {
			v = e.check(mp)
		}
		e.verdict[key] = v
		e.Checked++
		e.mChecked.Add(1)
		if e.CheckCostSec > 0 {
			e.inner.ChargeOverhead(e.CheckCostSec)
		}
	}
	if v.bad {
		e.Pruned++
		e.mPruned.Add(1)
		if v.lb {
			e.PrunedLB++
			e.mPrunedLB.Add(1)
		}
		return Evaluation{MeanSec: math.Inf(1), Failed: true, Cached: seen, Pruned: true}
	}
	return e.inner.Evaluate(mp)
}

// Prefetch statically checks the batch and forwards the feasible candidates
// to the inner evaluator's Prefetch (when it has one). Like all Prefetch
// implementations it has no observable side effects — verdicts land in the
// speculative cache and their accounting commits when Evaluate reaches the
// candidate.
func (e *PruningEvaluator) Prefetch(cands []*mapping.Mapping) {
	inner, _ := e.inner.(BatchEvaluator)
	feasible := cands[:0:0]
	for _, mp := range cands {
		key := mp.Key()
		if v, seen := e.verdict[key]; seen {
			if !v.bad {
				feasible = append(feasible, mp)
			}
			continue
		}
		e.specMu.Lock()
		v, seen := e.spec[key]
		e.specMu.Unlock()
		if !seen {
			v = e.check(mp)
			e.specMu.Lock()
			e.spec[key] = v
			e.specMu.Unlock()
		}
		if !v.bad {
			feasible = append(feasible, mp)
		}
	}
	if inner != nil && len(feasible) > 0 {
		inner.Prefetch(feasible)
	}
}

// SetDeltaBase forwards the incumbent to the inner evaluator's
// classification when it has one; a no-op otherwise, so pruning composes
// transparently with DeltaEvaluator inners.
func (e *PruningEvaluator) SetDeltaBase(mp *mapping.Mapping) {
	if d, ok := e.inner.(DeltaEvaluator); ok {
		d.SetDeltaBase(mp)
	}
}

// DeltaEvalStats forwards to the inner evaluator's attribution counters;
// zero when the inner evaluator has no classification surface.
func (e *PruningEvaluator) DeltaEvalStats() (incremental, fallback int64) {
	if d, ok := e.inner.(DeltaEvaluator); ok {
		return d.DeltaEvalStats()
	}
	return 0, 0
}

// SearchTimeSec returns the inner evaluator's search clock.
func (e *PruningEvaluator) SearchTimeSec() float64 { return e.inner.SearchTimeSec() }

// ChargeOverhead forwards to the inner evaluator.
func (e *PruningEvaluator) ChargeOverhead(sec float64) { e.inner.ChargeOverhead(sec) }
