// Package telemetry is the search-process observability layer: a typed
// event stream and a metrics registry that together expose the
// decision-level story of a mapping search — which coordinate CCD flipped,
// which candidates were rejected, cached, or pruned, and when co-location
// constraint edges were dropped across rotations. The paper's evaluation
// (Section 5, Figures 9–11) is built on exactly this kind of introspection:
// time-to-best curves, suggestion/evaluation counters, and per-rotation
// constraint behavior.
//
// The layer is deterministic by construction: event payloads carry the
// simulated search clock, never wall-clock timestamps, so a search with a
// fixed seed produces byte-identical telemetry across runs — golden-testable
// and diffable across PRs. It depends on nothing but the standard library;
// producers (search, driver) reference it, never the reverse.
package telemetry

// Event is one structured search-process event. Implementations are plain
// value types whose fields are JSON-serializable scalars; Kind returns the
// stable type tag written to the JSONL stream.
type Event interface {
	Kind() string
}

// SearchStarted opens a search: one per driver.Search invocation.
type SearchStarted struct {
	// Algorithm is the search algorithm's display name (e.g. "AM-CCD").
	Algorithm string `json:"algorithm"`
	// Program and Machine identify the workload.
	Program string `json:"program"`
	Machine string `json:"machine"`
	// Tasks and Collections are the program's dimensions.
	Tasks       int `json:"tasks"`
	Collections int `json:"collections"`
	// Seed is the user-facing driver seed.
	Seed uint64 `json:"seed"`
}

// Kind implements Event.
func (SearchStarted) Kind() string { return "search_started" }

// Suggested records one candidate mapping proposed to the evaluator.
type Suggested struct {
	// Coord names the coordinate the algorithm flipped (e.g.
	// "stencil.arg0" for task stencil's first collection argument,
	// "stencil.dist" for its distribution bit). Empty for genome-wide
	// moves (the OpenTuner ensemble mutates several coordinates at once).
	Coord string `json:"coord,omitempty"`
	// Move describes the flipped value (e.g. "proc=GPU mem=FB").
	Move string `json:"move,omitempty"`
	// Candidate is the canonical mapping key (mapping.Key).
	Candidate string `json:"candidate"`
	// Source is the proposing algorithm or ensemble technique (e.g.
	// "AM-CCD", "ot:crossover").
	Source string `json:"source,omitempty"`
}

// Kind implements Event.
func (Suggested) Kind() string { return "suggested" }

// Evaluated records the evaluator's verdict on the previously Suggested
// candidate.
type Evaluated struct {
	// Candidate is the canonical mapping key.
	Candidate string `json:"candidate"`
	// MeanSec is the measured mean execution time; 0 (omitted) for
	// failed or pruned candidates, whose cost is infinite.
	MeanSec float64 `json:"mean_sec,omitempty"`
	// Cached: the verdict came from the profiles database (repeated
	// suggestion), no new measurements were taken.
	Cached bool `json:"cached,omitempty"`
	// Failed: the mapping was invalid or unexecutable (e.g. OOM).
	Failed bool `json:"failed,omitempty"`
	// Pruned: pre-pruning rejected the mapping without simulation,
	// because it fails validation or placement (driver Options.PrePrune).
	Pruned bool `json:"pruned,omitempty"`
	// StartSec/EndSec bracket the evaluation on the simulated search
	// clock; EndSec-StartSec is the search time the candidate cost.
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
}

// Kind implements Event.
func (Evaluated) Kind() string { return "evaluated" }

// NewBest records that a candidate became the best-so-far (one TracePoint
// of the Figure 9 trajectory).
type NewBest struct {
	Candidate string  `json:"candidate"`
	BestSec   float64 `json:"best_sec"`
	SearchSec float64 `json:"search_sec"`
}

// Kind implements Event.
func (NewBest) Kind() string { return "new_best" }

// RotationStarted opens one CCD rotation (one full coordinate-descent pass,
// Algorithm 1).
type RotationStarted struct {
	// Rotation is 1-based.
	Rotation int `json:"rotation"`
	// ConstraintEdges is the number of co-location edges still active in
	// the overlap graph as the rotation begins.
	ConstraintEdges int `json:"constraint_edges"`
}

// Kind implements Event.
func (RotationStarted) Kind() string { return "rotation_started" }

// ConstraintDropped records one co-location edge pruned from the overlap
// graph after a rotation (Algorithm 1, line 8).
type ConstraintDropped struct {
	// Rotation is the 1-based rotation after which the edge was dropped.
	Rotation int `json:"rotation"`
	// CollA and CollB are the joined collection IDs (CollA < CollB).
	CollA int `json:"coll_a"`
	CollB int `json:"coll_b"`
	// WeightBytes is the overlap |A ∩ B| the edge carried.
	WeightBytes int64 `json:"weight_bytes"`
}

// Kind implements Event.
func (ConstraintDropped) Kind() string { return "constraint_dropped" }

// SearchFinished closes a search.
type SearchFinished struct {
	// StopReason is why the search stopped: "time_budget",
	// "suggestion_budget", or "converged".
	StopReason string `json:"stop_reason"`
	// BestSec is the best mean observed during the search; 0 (omitted)
	// if no candidate executed.
	BestSec float64 `json:"best_sec,omitempty"`
	// SearchSec is the total simulated search time consumed.
	SearchSec float64 `json:"search_sec"`
	// EvalSec is the total simulated cost of the evaluations themselves
	// (candidate measurement time, excluding per-suggestion overheads) —
	// the wall-clock-free virtual cost of the search, so a trace is
	// self-describing without the report file.
	EvalSec float64 `json:"eval_sec"`
	// Suggested/Evaluated are the Section 5.3 counters.
	Suggested int `json:"suggested"`
	Evaluated int `json:"evaluated"`
}

// Kind implements Event.
func (SearchFinished) Kind() string { return "search_finished" }
