// Package search implements AutoMap's search algorithms over the space of
// mappings (Section 4 of the paper): coordinate-wise descent (CD), the
// novel constrained coordinate-wise descent (CCD, Algorithms 1 and 2), and
// an OpenTuner-style ensemble tuner.
//
// The search space follows the paper's factorization (Section 3.2): a
// mapping function of signature
//
//	tasks × collections → bool × processor kind × memory kind
//
// is searched at the kind level, while the runtime (here: the simulator)
// deterministically selects concrete processors and memories of the chosen
// kinds. Algorithms propose candidate mappings; an Evaluator — implemented
// by the driver — measures them by running the application, caching results
// per canonical mapping key, and accounting for search time in simulated
// application-seconds (in the real system the search is dominated by the
// time spent executing candidate mappings).
package search

import (
	"context"
	"errors"
	"fmt"
	"math"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/profile"
	"automap/internal/taskir"
	"automap/internal/telemetry"
)

// Evaluation is the driver's verdict on one proposed mapping.
type Evaluation struct {
	// MeanSec is the mean measured execution time; +Inf for mappings
	// that are invalid or failed to execute (e.g. out of memory).
	MeanSec float64
	// Cached reports that the mapping had been evaluated before
	// (repeated suggestion; no new measurements were taken).
	Cached bool
	// Failed reports invalid or unexecutable mappings.
	Failed bool
	// Pruned reports that the evaluator answered without launching the
	// mapping, because it cannot launch (the driver's Options.PrePrune);
	// implies Failed.
	Pruned bool
}

// Evaluator measures candidate mappings. Implementations must be
// deterministic given their construction seed.
type Evaluator interface {
	// Evaluate measures mp (or returns the cached result).
	Evaluate(mp *mapping.Mapping) Evaluation
	// SearchTimeSec returns the simulated search time consumed so far:
	// application execution time of all measurements plus any charged
	// algorithm overhead.
	SearchTimeSec() float64
	// ChargeOverhead adds algorithm bookkeeping time (used by the
	// OpenTuner-style tuner, whose generic machinery consumes 55–87% of
	// search time in the paper's measurements, Section 5.3).
	ChargeOverhead(sec float64)
}

// BatchEvaluator is an optional Evaluator extension: Prefetch announces
// the candidates an algorithm is about to evaluate, in order. It is purely
// advisory and MUST have no observable effect; the driver's evaluator
// ignores it and measures one candidate at a time. CCD still announces each
// move set it builds (see CCD.optimizeTask) only because the benchmark's
// trace test asserts that a CCD search calls Prefetch; ROADMAP item 2, the
// benchmark change, deletes the interface and that call together.
type BatchEvaluator interface {
	Evaluator
	Prefetch(cands []*mapping.Mapping)
}

// DeltaEvaluator is an optional Evaluator extension for evaluators that
// classify each candidate against the search incumbent (the driver's
// DeltaInstance, DESIGN §14). SetDeltaBase names the incumbent; it never
// changes a result, so algorithms call it on every accept and never on
// rejects. DeltaEvalStats returns the evaluator's commit-time attribution
// counters (how many committed evaluations classified as bounded deltas
// of the incumbent vs fallbacks). No algorithm reads them; the benchmark's
// traced evaluator forwards them.
type DeltaEvaluator interface {
	Evaluator
	SetDeltaBase(mp *mapping.Mapping)
	DeltaEvalStats() (incremental, fallback int64)
}

// Budget bounds a search.
type Budget struct {
	// MaxSearchSec stops the search once the evaluator's simulated
	// search time exceeds it. Zero means unbounded.
	MaxSearchSec float64
	// MaxSuggestions stops the search after this many proposals. Zero
	// means unbounded.
	MaxSuggestions int
	// Context optionally carries cancellation: a canceled context stops
	// the search at the next proposal boundary with StopInterrupted, an
	// expired deadline with StopDeadline. Nil means never canceled.
	// Unlike the deterministic bounds above, cancellation is a
	// wall-clock event; a stopped search can be resumed from a
	// checkpoint and replays to the same result it would have reached
	// uninterrupted (see internal/checkpoint).
	Context context.Context
}

// Bounded returns b with a two-hour MaxSearchSec when the named
// algorithm never stops on its own (ot, random) and b bounds neither time
// nor suggestions.
func (b Budget) Bounded(algorithm string) Budget {
	if (algorithm == "ot" || algorithm == "random") && b.MaxSearchSec == 0 && b.MaxSuggestions == 0 {
		b.MaxSearchSec = 2 * 3600
	}
	return b
}

// StopReason records why a search ended.
type StopReason string

// The stop reasons. "Converged" means the algorithm ran to its natural
// completion (all CCD rotations done, annealing schedule exhausted) within
// the budget. "Deadline" and "interrupted" report context cancellation
// (wall-clock deadline, SIGINT) — the only non-deterministic stops.
const (
	StopTimeBudget       StopReason = "time_budget"
	StopSuggestionBudget StopReason = "suggestion_budget"
	StopConverged        StopReason = "converged"
	StopDeadline         StopReason = "deadline"
	StopInterrupted      StopReason = "interrupted"
)

// Stopped reports whether r is a cancellation stop (deadline or
// interrupt), after which the driver writes a final checkpoint and skips
// the final re-measurement phase.
func (r StopReason) Stopped() bool {
	return r == StopDeadline || r == StopInterrupted
}

// ContextStop returns the cancellation stop reason of the budget's
// context, or "" while the search may continue.
func (b Budget) ContextStop() StopReason {
	if b.Context == nil {
		return ""
	}
	err := b.Context.Err()
	switch {
	case err == nil:
		return ""
	case errors.Is(err, context.DeadlineExceeded):
		return StopDeadline
	}
	return StopInterrupted
}

// reason returns the budget bound that is exhausted, or "" while the search
// may continue. Cancellation is checked first so an interrupted search
// stops promptly regardless of the deterministic bounds.
func (b Budget) reason(ev Evaluator, suggested int) StopReason {
	if r := b.ContextStop(); r != "" {
		return r
	}
	if b.MaxSearchSec > 0 && ev.SearchTimeSec() >= b.MaxSearchSec {
		return StopTimeBudget
	}
	if b.MaxSuggestions > 0 && suggested >= b.MaxSuggestions {
		return StopSuggestionBudget
	}
	return ""
}

// Problem bundles everything an algorithm needs to search.
type Problem struct {
	Graph *taskir.Graph
	Model *machine.Model
	// Space is the profiled search-space description (task runtimes for
	// ordering, argument sizes).
	Space *profile.Space
	// Overlap is the collection-overlap graph C; CCD clones it before
	// pruning. May be nil for algorithms that do not use it.
	Overlap *overlap.Graph
	// Start is the starting mapping (Section 4.1's starting point).
	Start *mapping.Mapping
	// Tunable optionally restricts the search to a subset of tasks
	// (Section 3.3: the search-space file may contain "all or a subset
	// of tasks and data collections"); nil means all tasks are tunable.
	// Decisions of non-tunable tasks stay fixed at the starting mapping.
	Tunable []taskir.TaskID
	// Seed drives any algorithm-internal randomness.
	Seed uint64
	// Observer optionally receives the search's telemetry: the typed
	// event stream (Suggested/Evaluated/NewBest/RotationStarted/
	// ConstraintDropped) and the metrics registry. Nil disables
	// observation at zero cost: no event values are built, no mapping
	// keys are computed.
	Observer *telemetry.Observer
	// Span is the ID of the enclosing telemetry span (the driver's
	// search_phase span); algorithms parent their own spans — e.g. CCD's
	// per-rotation spans — under it. Zero means no enclosing span.
	Span int
}

// tunableSet returns the tunable tasks as a set, or nil when all tasks are
// tunable.
func (p *Problem) tunableSet() map[taskir.TaskID]bool {
	if p.Tunable == nil {
		return nil
	}
	set := make(map[taskir.TaskID]bool, len(p.Tunable))
	for _, id := range p.Tunable {
		set[id] = true
	}
	return set
}

// TracePoint is one point of the best-mapping-so-far trajectory (Figure 9
// plots these).
type TracePoint struct {
	SearchSec float64
	BestSec   float64
}

// Outcome is the result of one search.
type Outcome struct {
	Best    *mapping.Mapping
	BestSec float64
	// Suggested counts mappings proposed to the evaluator (including
	// repeats and invalid ones); Evaluated counts distinct mappings
	// actually measured. Section 5.3 compares these per algorithm.
	Suggested int
	Evaluated int
	Trace     []TracePoint
	// StopReason records why the search ended.
	StopReason StopReason
}

// Algorithm is a pluggable search algorithm (Figure 4: "the search
// algorithms are pluggable components").
type Algorithm interface {
	Name() string
	Search(p *Problem, ev Evaluator, budget Budget) *Outcome
}

// New returns a fresh instance of the named algorithm: ccd, cd, ot,
// random, or anneal.
func New(name string) (Algorithm, error) {
	switch name {
	case "ccd":
		return NewCCD(), nil
	case "cd":
		return NewCD(), nil
	case "ot":
		return NewOpenTuner(), nil
	case "random":
		return NewRandom(), nil
	case "anneal":
		return NewAnneal(), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (have ccd, cd, ot, random, anneal)", name)
}

// tracker centralizes proposal bookkeeping shared by the algorithms: the
// incumbent, the Section 5.3 counters, the Figure 9 trace, and — when the
// problem carries an Observer — the telemetry event stream and metric
// counters. With a nil observer every telemetry site is a nil check.
type tracker struct {
	ev        Evaluator
	best      *mapping.Mapping
	bestSec   float64
	suggested int
	evaluated int
	trace     []TracePoint

	// delta is ev's classification surface when it has one (nil
	// otherwise): each accepted candidate becomes the delta base, so
	// subsequent candidates are classified against the current
	// incumbent. It stays only for the incremental/fallback totals that
	// benchmark/expected.json pins.
	delta DeltaEvaluator

	obs *telemetry.Observer
	// source labels Suggested events with the proposing algorithm or
	// ensemble technique; coord and move describe the coordinate the
	// current proposal flips. Algorithms set them (guarded by
	// obs.Enabled) before calling test/testEval.
	source string
	coord  string
	move   string
	// Pre-resolved metric instruments (nil-safe no-ops without a
	// registry).
	mSuggested *telemetry.Counter
	mEvaluated *telemetry.Counter
	mNewBest   *telemetry.Counter
}

func newTracker(p *Problem, ev Evaluator) *tracker {
	delta, _ := ev.(DeltaEvaluator)
	return &tracker{
		ev:         ev,
		delta:      delta,
		bestSec:    math.Inf(1),
		obs:        p.Observer,
		mSuggested: p.Observer.Counter("search.suggested"),
		mEvaluated: p.Observer.Counter("search.evaluated"),
		mNewBest:   p.Observer.Counter("search.new_best"),
	}
}

// test proposes cand; if it measures strictly faster than the incumbent it
// becomes the new best (the paper's TestMapping, Algorithm 1 lines 20–24).
// Returns whether cand was accepted.
func (tr *tracker) test(cand *mapping.Mapping) bool {
	_, accepted := tr.testEval(cand)
	return accepted
}

// testEval is test exposing the evaluator's verdict, for algorithms that
// need the measured cost itself (annealing's Metropolis rule, the
// OpenTuner elite population).
func (tr *tracker) testEval(cand *mapping.Mapping) (Evaluation, bool) {
	tr.suggested++
	tr.mSuggested.Add(1)
	var key string
	var before float64
	emit := tr.obs.Enabled()
	if emit {
		key = cand.Key()
		before = tr.ev.SearchTimeSec()
		tr.obs.Emit(telemetry.Suggested{Coord: tr.coord, Move: tr.move, Candidate: key, Source: tr.source})
	}
	res := tr.ev.Evaluate(cand)
	if !res.Cached && !res.Failed {
		tr.evaluated++
		tr.mEvaluated.Add(1)
	}
	if emit {
		mean := res.MeanSec
		if math.IsInf(mean, 1) {
			mean = 0 // infinite cost is encoded as absence in JSON
		}
		tr.obs.Emit(telemetry.Evaluated{
			Candidate: key, MeanSec: mean,
			Cached: res.Cached, Failed: res.Failed, Pruned: res.Pruned,
			StartSec: before, EndSec: tr.ev.SearchTimeSec(),
		})
	}
	if res.MeanSec < tr.bestSec {
		tr.best = cand
		tr.bestSec = res.MeanSec
		if tr.delta != nil {
			tr.delta.SetDeltaBase(cand)
		}
		tr.trace = append(tr.trace, TracePoint{SearchSec: tr.ev.SearchTimeSec(), BestSec: tr.bestSec})
		tr.mNewBest.Add(1)
		if emit {
			tr.obs.Emit(telemetry.NewBest{Candidate: key, BestSec: tr.bestSec, SearchSec: tr.ev.SearchTimeSec()})
		}
		return res, true
	}
	return res, false
}

func (tr *tracker) outcome(reason StopReason) *Outcome {
	return &Outcome{
		Best:       tr.best,
		BestSec:    tr.bestSec,
		Suggested:  tr.suggested,
		Evaluated:  tr.evaluated,
		Trace:      tr.trace,
		StopReason: reason,
	}
}

// SizeLog2 estimates the base-2 logarithm of the mapping search-space size
// for the Figure 5 table: P^T · M^C (with the distribution bit folded into
// the per-task choices), where P is the number of processor-kind choices
// per task and M the number of memory-kind choices per collection argument.
func SizeLog2(g *taskir.Graph, md *machine.Model) float64 {
	var bits float64
	for _, t := range g.Tasks {
		kinds := 0
		for _, k := range t.VariantKinds() {
			if md.HasProcKind(k) {
				kinds++
			}
		}
		if kinds > 1 {
			bits += math.Log2(float64(kinds))
		}
		for range t.Args {
			// Each processor kind in the modeled machines can
			// address at least two memory kinds (Section 3.2).
			bits += 1
		}
	}
	return bits
}
