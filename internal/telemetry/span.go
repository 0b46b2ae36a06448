// Spans: typed start/end events forming a tree per search, the tracing
// half of the observability layer. A span brackets one unit of work —
// the whole search, one CCD rotation, the final measurement phase, or a
// serve-side HTTP request — and carries a parent ID so consumers (the
// Perfetto trace writer, `mapstat`, scripts/telemetrycheck) can rebuild
// the tree from the flat stream.
//
// Determinism rule: spans emitted by the deterministic packages (sim,
// search, driver) are stamped with the simulated search clock
// (search.Evaluator's SearchTimeSec), never wall-clock, so the span
// stream is byte-identical under a fixed seed and across
// checkpoint/resume. Only serve-side spans — which describe real
// HTTP traffic — use wall-clock time, obtained exclusively through the
// WallClock shim below; `mapvet nowallclock` enforces that no other
// time source leaks in.

package telemetry

import "time"

// SpanStart opens one span. ID is unique within a stream and assigned
// sequentially by the emitting Observer; Parent is the enclosing span's
// ID (0 for a root span). Trace is an optional request-scoped
// correlation ID stamped by serve-side observers so one HTTP request's
// spans can be joined across streams; deterministic streams leave it
// empty.
type SpanStart struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Trace  string `json:"trace,omitempty"`
	// StartSec is the span's start on the stream's clock: the simulated
	// search clock for deterministic streams, seconds since observer
	// creation for serve-side wall-clock streams.
	StartSec float64 `json:"start_sec"`
}

// Kind implements Event.
func (SpanStart) Kind() string { return "span_start" }

// SpanEnd closes the span with the matching ID.
type SpanEnd struct {
	ID     int     `json:"id"`
	EndSec float64 `json:"end_sec"`
}

// Kind implements Event.
func (SpanEnd) Kind() string { return "span_end" }

// StartSpan emits a SpanStart and returns its ID for the matching
// EndSpan call. IDs are sequential per observer, so a resumed search
// replaying its trajectory re-derives identical IDs and the suppressed
// prefix plus the live suffix reconstruct the uninterrupted stream.
// Returns 0 (the "no span" ID, also the root parent) when the observer
// records nothing; passing that 0 as a later span's parent is valid.
func (o *Observer) StartSpan(parent int, name, detail string, startSec float64) int {
	if o == nil || o.Sink == nil {
		return 0
	}
	o.spanSeq++
	o.Emit(SpanStart{
		ID:       o.spanSeq,
		Parent:   parent,
		Name:     name,
		Detail:   detail,
		Trace:    o.Trace,
		StartSec: startSec,
	})
	return o.spanSeq
}

// EndSpan emits the SpanEnd closing id. A 0 id (from a disabled
// observer's StartSpan) is dropped silently, so instrumented code never
// branches on whether telemetry is attached.
func (o *Observer) EndSpan(id int, endSec float64) {
	if o == nil || o.Sink == nil || id == 0 {
		return
	}
	o.Emit(SpanEnd{ID: id, EndSec: endSec})
}

// Clock yields the current time in seconds on some monotonic axis.
// Deterministic code passes the simulated search clock; serve-side code
// passes WallClock().
type Clock func() float64

// WallClock returns a Clock measuring wall-clock seconds since its
// creation. It is the single sanctioned wall-clock source for
// telemetry: serve-side spans describe real HTTP traffic and must carry
// real time, while everything inside the search stack stays on the
// simulated clock. mapvet's nowallclock analyzer allows exactly these
// two calls (via the //mapvet:wallclock directive) and flags any other
// use of package time in telemetry producers.
func WallClock() Clock {
	start := time.Now() //mapvet:wallclock the one sanctioned wall-clock anchor for serve-side spans
	return func() float64 {
		return time.Since(start).Seconds() //mapvet:wallclock serve-side spans carry real elapsed time by design
	}
}
