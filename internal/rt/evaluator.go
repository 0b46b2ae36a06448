// A search.Evaluator over the real runtime, so every search algorithm in
// this repository (CCD, CD, OpenTuner, random, annealing) can tune real
// wall-clock measurements end-to-end.

package rt

import (
	"context"
	"math"

	"automap/internal/mapping"
	"automap/internal/profile"
	"automap/internal/search"
)

// failureTokenSec is the search-time charge for a candidate that ran out of
// memory, matching the driver's accounting: the time spent on completed
// sibling repeats plus this token for the failed launch itself.
const failureTokenSec = 1.0

// Evaluator measures candidate mappings by really executing them. Only
// genuinely un-executable mappings (validation or out-of-memory failures)
// are recorded as failures in the database; the executor has no other
// failure, and placement is deterministic, so nothing is retried.
type Evaluator struct {
	Ex *Executor
	// Repeats is the number of runs averaged per candidate (the paper
	// uses 7 — real measurements are noisy).
	Repeats int

	// DB caches measurements per canonical mapping key.
	DB *profile.DB

	// Ctx optionally cancels in-flight executions. A candidate cut short
	// by cancellation reports Failed to stop the sweep but is NOT
	// recorded in the database: the mapping is not at fault, and a
	// resumed search must be free to measure it for real.
	Ctx context.Context

	searchSec float64
	// Suggested/Evaluated mirror the driver's Section 5.3 accounting.
	Suggested int
	Evaluated int
}

// NewEvaluator returns a real-runtime evaluator with the given repetition
// count.
func NewEvaluator(ex *Executor, repeats int) *Evaluator {
	if repeats < 1 {
		repeats = 1
	}
	return &Evaluator{Ex: ex, Repeats: repeats, DB: profile.NewDB()}
}

// Evaluate really executes mp Repeats times and returns the mean wall time.
func (e *Evaluator) Evaluate(mp *mapping.Mapping) search.Evaluation {
	e.Suggested++
	key := mp.Key()
	if s, ok := e.DB.Lookup(key); ok {
		return search.Evaluation{MeanSec: s.Mean(), Cached: true, Failed: s.Failed}
	}
	// Pre-validate so ill-formed mappings are rejected permanently
	// without spending an execution on them.
	if err := mp.Validate(e.Ex.G, e.Ex.M.Model()); err != nil {
		e.DB.RecordFailure(key)
		return search.Evaluation{MeanSec: math.Inf(1), Failed: true}
	}
	ctx := e.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	times := make([]float64, 0, e.Repeats)
	var spent float64
	for i := 0; i < e.Repeats; i++ {
		d, err := e.Ex.ExecuteContext(ctx, mp)
		if err != nil {
			if ctx.Err() != nil {
				return search.Evaluation{MeanSec: math.Inf(1), Failed: true}
			}
			// Out of memory: charge the time actually spent on the
			// completed sibling repeats plus the failure token (the
			// driver's policy), then poison the key.
			e.searchSec += spent + failureTokenSec
			e.DB.RecordFailure(key)
			return search.Evaluation{MeanSec: math.Inf(1), Failed: true}
		}
		sec := d.Seconds()
		times = append(times, sec)
		spent += sec
	}
	e.searchSec += spent
	s := e.DB.Record(key, times)
	e.Evaluated++
	return search.Evaluation{MeanSec: s.Mean()}
}

// SearchTimeSec returns the wall time spent executing candidates.
func (e *Evaluator) SearchTimeSec() float64 { return e.searchSec }

// ChargeOverhead adds algorithm bookkeeping time.
func (e *Evaluator) ChargeOverhead(sec float64) { e.searchSec += sec }

// ExtractSpace runs the program once under start and returns the
// search-space representation with wall-clock task runtimes approximated
// from declared work (the real runtime does not instrument per-task times;
// the search only needs a visit order).
func ExtractSpace(ex *Executor, start *mapping.Mapping) (*profile.Space, error) {
	if _, err := ex.Execute(start); err != nil {
		return nil, err
	}
	sp := &profile.Space{Application: ex.G.Name, Machine: ex.M.Name}
	for _, t := range ex.G.Tasks {
		// Rank tasks by their declared work on the starting kind.
		d := start.Decision(t.ID)
		v := t.Variants[d.Proc]
		sp.Tasks = append(sp.Tasks, profile.TaskInfo{
			ID: t.ID, Name: t.Name, Points: t.Points,
			RuntimeSec: v.WorkPerPoint * float64(t.Points),
			Variants:   t.VariantKinds(),
			NumArgs:    len(t.Args),
		})
		for a, arg := range t.Args {
			sp.Args = append(sp.Args, profile.ArgInfo{
				Task: t.ID, Arg: a, Collection: arg.Collection,
				SizeBytes: ex.G.Collection(arg.Collection).SizeBytes(),
				Privilege: arg.Privilege.String(),
			})
		}
	}
	return sp, nil
}
