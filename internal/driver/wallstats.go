// Wall-clock operational telemetry for parallel batch evaluation.
//
// Everything in this file measures REAL time and scheduling — per-worker
// throughput, how many candidates the search loop measured itself, how
// much speculation was thrown away — so none of it may enter the
// deterministic Observer registry: two byte-identical searches on
// different machines (or the same machine twice) will report different
// wall numbers. Options.WallMetrics routes these instruments to
// a separate registry (the mapd daemon passes its serve registry, which
// backs /metrics and `mapstat top`); without one, wallStats is nil and
// every method is a nil-receiver no-op.
//
// The clock is telemetry.WallClock() — the single sanctioned wall-clock
// source (see the nowallclock vet check): driver code never calls
// time.Now directly, so the deterministic simulated-clock discipline of
// the rest of the package stays mechanically checkable.

package driver

import (
	"fmt"

	"automap/internal/telemetry"
)

// wallStats carries the wall-clock instruments. A nil *wallStats (no
// Options.WallMetrics) disables the whole thing at the cost of a nil check.
type wallStats struct {
	clock telemetry.Clock

	// syncEvals counts candidates the search loop had to measure
	// synchronously because no Prefetch batch held their result
	// (driver.commit.sync_evals) — the "speculation missed" indicator.
	syncEvals *telemetry.Counter
	// superseded counts speculative results a re-batch dropped before
	// any Evaluate consumed them (driver.prefetch.superseded).
	superseded *telemetry.Counter

	// Per worker slot: speculative measurements completed and busy
	// seconds accumulated, as driver.worker.evals{worker="N"} counters
	// and driver.worker.busy_sec{worker="N"} gauges. A batch's goroutine
	// i reports as slot i, so the series count is the worker pool width.
	workerEvals []*telemetry.Counter
	workerBusy  []*telemetry.Gauge
}

// newWallStats resolves the instruments against reg; a nil reg yields a nil
// wallStats, whose methods all no-op.
func newWallStats(reg *telemetry.Registry, workers int) *wallStats {
	if reg == nil {
		return nil
	}
	w := &wallStats{
		clock:      telemetry.WallClock(),
		syncEvals:  reg.Counter("driver.commit.sync_evals"),
		superseded: reg.Counter("driver.prefetch.superseded"),
	}
	for i := 0; i < workers; i++ {
		w.workerEvals = append(w.workerEvals, reg.Counter(fmt.Sprintf(`driver.worker.evals{worker="%d"}`, i)))
		w.workerBusy = append(w.workerBusy, reg.Gauge(fmt.Sprintf(`driver.worker.busy_sec{worker="%d"}`, i)))
	}
	return w
}

// now reads the wall clock; 0 without instrumentation (callers only ever
// use it to form deltas fed back into nil-safe methods).
func (w *wallStats) now() float64 {
	if w == nil {
		return 0
	}
	return w.clock()
}

// syncEval records a candidate measured synchronously by the search loop.
func (w *wallStats) syncEval() {
	if w == nil {
		return
	}
	w.syncEvals.Add(1)
}

// supersede records n speculative results dropped unconsumed.
func (w *wallStats) supersede(n int) {
	if w == nil {
		return
	}
	w.superseded.Add(int64(n))
}

// workerEval records one completed speculative measurement by worker slot,
// with the busy seconds it took.
func (w *wallStats) workerEval(slot int, busySec float64) {
	if w == nil {
		return
	}
	w.workerEvals[slot].Add(1)
	w.workerBusy[slot].Add(busySec)
}
