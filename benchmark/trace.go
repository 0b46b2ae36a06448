package main

import (
	"time"

	"automap/internal/mapping"
	"automap/internal/search"
)

// searchTrace is the span record of one traced driver.Search, taken
// entirely from outside the program: the benchmark calls driver.Search with
// a timedAlgorithm, which wraps the evaluator the driver hands the
// algorithm in a timedEvaluator. The boundaries are
//
//	start      driver.Search called
//	entered    Algorithm.Search entered  (profiling, overlap graph, evaluator built)
//	returned   Algorithm.Search returned (search loop: evaluate, prefetch, self)
//	end        driver.Search returned    (prefetch drain, final re-measurement)
//
// and inside [entered, returned] the time spent in Evaluate and Prefetch
// calls. The four disjoint layers — profile set-up, search self time,
// evaluate, prefetch, final — therefore sum to end-start exactly.
type searchTrace struct {
	start, entered, returned, end time.Time

	evaluate      time.Duration
	evalCalls     int
	evalCached    int
	prefetch      time.Duration
	prefetchCalls int

	// committed lists the freshly measured candidates in commit order,
	// each with the delta base the search had set when it was evaluated,
	// for the simulator replay.
	committed []committedCandidate
	base      *mapping.Mapping

	// unwrapped is set when the driver's evaluator lacked the batch or
	// delta surface, so the wrapper could not stand in for it.
	unwrapped bool
}

// committedCandidate is one fresh measurement of the search.
type committedCandidate struct {
	mp   *mapping.Mapping
	base *mapping.Mapping
}

// layers returns the disjoint layer durations of the trace.
func (t *searchTrace) layers() (setup, self, evaluate, prefetch, final time.Duration) {
	inAlg := t.returned.Sub(t.entered)
	return t.entered.Sub(t.start), inAlg - t.evaluate - t.prefetch, t.evaluate, t.prefetch, t.end.Sub(t.returned)
}

// timedAlgorithm wraps a search algorithm to stamp its entry and return and
// to time the evaluator calls it makes. It reports the inner algorithm's
// name, so the driver's snapshot fingerprint and report are unchanged.
type timedAlgorithm struct {
	inner search.Algorithm
	t     *searchTrace
}

func (a *timedAlgorithm) Name() string { return a.inner.Name() }

func (a *timedAlgorithm) Search(p *search.Problem, ev search.Evaluator, budget search.Budget) *search.Outcome {
	a.t.entered = time.Now()
	var wrapped search.Evaluator = ev
	if full, ok := ev.(fullEvaluator); ok {
		wrapped = &timedEvaluator{inner: full, t: a.t}
	} else {
		a.t.unwrapped = true
	}
	out := a.inner.Search(p, wrapped, budget)
	a.t.returned = time.Now()
	return out
}

// fullEvaluator is the surface of the driver's evaluator: plain, batch
// (speculative prefetch), and delta (incremental re-simulation). The
// algorithms discover the optional parts by type assertion, so the wrapper
// must offer exactly what the driver's evaluator offers.
type fullEvaluator interface {
	search.BatchEvaluator
	search.DeltaEvaluator
}

// timedEvaluator forwards every call to the driver's evaluator, timing
// Evaluate and Prefetch. It changes nothing the search observes: results,
// order of calls, and delta bases pass through untouched.
type timedEvaluator struct {
	inner fullEvaluator
	t     *searchTrace
}

func (e *timedEvaluator) Evaluate(mp *mapping.Mapping) search.Evaluation {
	start := time.Now()
	res := e.inner.Evaluate(mp)
	e.t.evaluate += time.Since(start)
	e.t.evalCalls++
	if res.Cached {
		e.t.evalCached++
	} else if !res.Failed {
		e.t.committed = append(e.t.committed, committedCandidate{mp: mp, base: e.t.base})
	}
	return res
}

func (e *timedEvaluator) Prefetch(cands []*mapping.Mapping) {
	start := time.Now()
	e.inner.Prefetch(cands)
	e.t.prefetch += time.Since(start)
	e.t.prefetchCalls++
}

func (e *timedEvaluator) SetDeltaBase(mp *mapping.Mapping) {
	e.t.base = mp
	e.inner.SetDeltaBase(mp)
}

func (e *timedEvaluator) DeltaEvalStats() (incremental, fallback int64) {
	return e.inner.DeltaEvalStats()
}

func (e *timedEvaluator) SearchTimeSec() float64     { return e.inner.SearchTimeSec() }
func (e *timedEvaluator) ChargeOverhead(sec float64) { e.inner.ChargeOverhead(sec) }
