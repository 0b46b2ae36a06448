package main

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/search"
	"automap/internal/telemetry"
)

// tracedOrNot runs one small CCD search, with the timing wrappers or
// without, and returns its outcome, its telemetry event stream, its
// metrics snapshot, and (traced) the span record.
func tracedOrNot(t *testing.T, traced bool) (outcome, []byte, map[string]float64, *searchTrace) {
	t.Helper()
	app, err := apps.Get("htr")
	if err != nil {
		t.Fatal(err)
	}
	g, err := app.Build("8x8y9z", 1)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	sink := telemetry.NewJSONLSink(&events)
	opts := driver.DefaultOptions()
	opts.Seed = 7
	opts.Observer = &telemetry.Observer{Sink: sink, Metrics: telemetry.NewRegistry()}
	var alg search.Algorithm = search.NewCCD()
	var tr *searchTrace
	if traced {
		tr = &searchTrace{}
		alg = &timedAlgorithm{inner: alg, t: tr}
		opts.WallMetrics = telemetry.NewRegistry()
	}
	start := time.Now()
	rep, err := driver.Search(cluster.Shepard(1), g, alg, opts, search.Budget{})
	end := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.start, tr.end = start, end
	}
	return outcomeOf(rep), events.Bytes(), rep.Metrics, tr
}

// TestTimingWrappersLeaveSearchIdentical checks that a traced CCD search is
// byte-identical to an untraced one: report digest, telemetry event stream,
// and every counter — with two workers, so the wrapped Prefetch path runs.
func TestTimingWrappersLeaveSearchIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	plainOut, plainEvents, plainMetrics, _ := tracedOrNot(t, false)
	out, events, metrics, tr := tracedOrNot(t, true)
	if out != plainOut {
		t.Errorf("traced outcome %+v, untraced %+v", out, plainOut)
	}
	if !bytes.Equal(events, plainEvents) {
		t.Errorf("traced event stream (%d bytes) differs from untraced (%d bytes)", len(events), len(plainEvents))
	}
	if !reflect.DeepEqual(metrics, plainMetrics) {
		t.Errorf("traced metrics differ from untraced:\n%v\n%v", metrics, plainMetrics)
	}
	if tr.unwrapped {
		t.Fatal("the driver's evaluator was not wrapped")
	}
	if tr.evalCalls != out.Suggested {
		t.Errorf("wrapper saw %d Evaluate calls, report says %d suggested", tr.evalCalls, out.Suggested)
	}
	if tr.prefetchCalls == 0 {
		t.Error("wrapper saw no Prefetch calls at two workers")
	}
	if len(tr.committed) != out.Evaluated {
		t.Errorf("wrapper recorded %d fresh measurements, report says %d evaluated", len(tr.committed), out.Evaluated)
	}
	setup, self, eval, pf, final := tr.layers()
	if sum := setup + self + eval + pf + final; sum != tr.end.Sub(tr.start) {
		t.Errorf("layers sum to %v, search took %v", sum, tr.end.Sub(tr.start))
	}
	for name, d := range map[string]time.Duration{"setup": setup, "self": self, "evaluate": eval, "final": final} {
		if d <= 0 {
			t.Errorf("layer %s = %v, want > 0", name, d)
		}
	}
}
