package driver

import (
	"bytes"
	"math"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/search"
	"automap/internal/telemetry"
)

// TestEvaluatorCacheHitPath pins the cache-hit contract end to end: a
// repeated suggestion returns Cached=true, charges no new search or eval
// time, runs no new simulations, and is counted in the cache-hit metric.
func TestEvaluatorCacheHitPath(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)
	opts := quickOpts()
	opts.Observer = &telemetry.Observer{Metrics: telemetry.NewRegistry()}
	ev := NewEvaluator(m, g, opts)
	mp := mapping.Default(g, m.Model())

	r1 := ev.Evaluate(mp)
	if r1.Cached || r1.Failed {
		t.Fatalf("first evaluation = %+v", r1)
	}
	searchSec := ev.SearchTimeSec()
	evalSec := ev.EvalTimeSec()
	simRuns := opts.Observer.Counter("search.eval.sim_runs").Value()
	if simRuns != int64(opts.Repeats) {
		t.Fatalf("sim_runs = %d, want %d", simRuns, opts.Repeats)
	}

	for i := 0; i < 3; i++ {
		r := ev.Evaluate(mp.Clone())
		if !r.Cached {
			t.Fatalf("repeat %d not cached: %+v", i, r)
		}
		if r.MeanSec != r1.MeanSec {
			t.Fatalf("cached mean %v != fresh mean %v", r.MeanSec, r1.MeanSec)
		}
	}
	if ev.SearchTimeSec() != searchSec || ev.EvalTimeSec() != evalSec {
		t.Fatal("cached evaluations charged search/eval time")
	}
	if got := opts.Observer.Counter("search.eval.sim_runs").Value(); got != simRuns {
		t.Fatalf("cached evaluations ran simulations: %d -> %d", simRuns, got)
	}
	if got := opts.Observer.Counter("search.eval.cache_hits").Value(); got != 3 {
		t.Fatalf("cache_hits = %d, want 3", got)
	}
	if ev.Evaluated != 1 {
		t.Fatalf("Evaluated = %d, want 1", ev.Evaluated)
	}
}

// TestSearchReportTelemetry checks the report carries the stop reason, the
// prune accounting, and the embedded metrics snapshot, and that the event
// stream contains a coherent search envelope.
func TestSearchReportTelemetry(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)

	mem := telemetry.NewMemorySink()
	opts := quickOpts()
	opts.PrePrune = true
	opts.Observer = &telemetry.Observer{Sink: mem, Metrics: telemetry.NewRegistry()}

	rep, err := Search(m, g, search.NewCCD(), opts, search.Budget{})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if rep.StopReason != search.StopConverged {
		t.Errorf("StopReason = %q, want %q (unbounded CCD runs to completion)", rep.StopReason, search.StopConverged)
	}
	if rep.PruneChecked == 0 {
		t.Error("PruneChecked = 0 with PrePrune enabled")
	}
	if rep.PruneChecked < rep.Pruned {
		t.Errorf("PruneChecked %d < Pruned %d", rep.PruneChecked, rep.Pruned)
	}
	if rep.Metrics == nil {
		t.Fatal("Report.Metrics not embedded")
	}
	for _, name := range []string{
		"search.suggested", "search.evaluated", "search.rotations",
		"search.eval.cache_hits", "search.eval.prune_checks",
		"sim.copies.count", "sim.copies.network_bytes",
		"search.eval.mean_sec.count", "search.best_sec",
	} {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}
	if got := rep.Metrics["search.suggested"]; got != float64(rep.Suggested) {
		t.Errorf("search.suggested = %g, report says %d", got, rep.Suggested)
	}
	if got := rep.Metrics["search.eval.prune_checks"]; got != float64(rep.PruneChecked) {
		t.Errorf("search.eval.prune_checks = %g, report says %d", got, rep.PruneChecked)
	}

	events := mem.Events()
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	if _, ok := events[0].(telemetry.SearchStarted); !ok {
		t.Errorf("first event is %T, want SearchStarted", events[0])
	}
	var finished []telemetry.SearchFinished
	for _, e := range events {
		if sf, ok := e.(telemetry.SearchFinished); ok {
			finished = append(finished, sf)
		}
	}
	if len(finished) != 1 {
		t.Fatalf("%d SearchFinished events, want 1", len(finished))
	}
	last := finished[0]
	if last.StopReason != string(search.StopConverged) {
		t.Errorf("SearchFinished.StopReason = %q", last.StopReason)
	}
	if last.Suggested != rep.Suggested || last.Evaluated != rep.Evaluated {
		t.Errorf("SearchFinished counters %d/%d, report %d/%d",
			last.Suggested, last.Evaluated, rep.Suggested, rep.Evaluated)
	}
	if last.EvalSec != rep.EvalSec {
		t.Errorf("SearchFinished.EvalSec = %v, report says %v", last.EvalSec, rep.EvalSec)
	}
	// Span envelope: the root "search" span opens the tree and is the
	// last thing closed (after the final re-measurement phase, which runs
	// past SearchFinished); every opened span is closed exactly once, and
	// parents always precede children.
	open := make(map[int]telemetry.SpanStart)
	closed := make(map[int]bool)
	var rootID int
	for _, e := range events {
		switch s := e.(type) {
		case telemetry.SpanStart:
			if _, dup := open[s.ID]; dup {
				t.Fatalf("span id %d started twice", s.ID)
			}
			if s.Parent != 0 && !func() bool { _, ok := open[s.Parent]; return ok }() {
				t.Errorf("span %d (%s) starts before its parent %d", s.ID, s.Name, s.Parent)
			}
			if s.Name == "search" {
				rootID = s.ID
			}
			open[s.ID] = s
		case telemetry.SpanEnd:
			if _, ok := open[s.ID]; !ok {
				t.Fatalf("span id %d ended without starting", s.ID)
			}
			if closed[s.ID] {
				t.Fatalf("span id %d ended twice", s.ID)
			}
			closed[s.ID] = true
		}
	}
	if rootID == 0 {
		t.Fatal("no root search span in the stream")
	}
	for id := range open {
		if !closed[id] {
			t.Errorf("span %d (%s) never closed", id, open[id].Name)
		}
	}
	if end, ok := events[len(events)-1].(telemetry.SpanEnd); !ok || end.ID != rootID {
		t.Errorf("last event is %T, want SpanEnd of the root search span", events[len(events)-1])
	}
	var suggested, evaluated, newBest int
	for _, e := range events {
		switch e.(type) {
		case telemetry.Suggested:
			suggested++
		case telemetry.Evaluated:
			evaluated++
		case telemetry.NewBest:
			newBest++
		}
	}
	if suggested != evaluated {
		t.Errorf("suggested events %d != evaluated events %d", suggested, evaluated)
	}
	if suggested != rep.Suggested {
		t.Errorf("suggested events %d, report %d", suggested, rep.Suggested)
	}
	if newBest == 0 {
		t.Error("no NewBest events in a search that found a mapping")
	}
}

// TestSearchStopReasonBudgets drives each budget bound and checks the
// reported reason.
func TestSearchStopReasonBudgets(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)

	rep, err := Search(m, g, search.NewCCD(), quickOpts(), search.Budget{MaxSuggestions: 5})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if rep.StopReason != search.StopSuggestionBudget {
		t.Errorf("StopReason = %q, want %q", rep.StopReason, search.StopSuggestionBudget)
	}

	rep, err = Search(m, g, search.NewCCD(), quickOpts(), search.Budget{MaxSearchSec: 1e-9})
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if rep.StopReason != search.StopTimeBudget {
		t.Errorf("StopReason = %q, want %q", rep.StopReason, search.StopTimeBudget)
	}
}

// TestSearchTrajectoryUnchangedByObserver: attaching telemetry must not
// perturb the search itself — same best mapping, same counters, same trace.
func TestSearchTrajectoryUnchangedByObserver(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)

	plain, err := Search(m, g, search.NewCCD(), quickOpts(), search.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := quickOpts()
	opts.Observer = &telemetry.Observer{Sink: telemetry.NewJSONLSink(&buf), Metrics: telemetry.NewRegistry()}
	observed, err := Search(m, g, search.NewCCD(), opts, search.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Best.Key() != observed.Best.Key() {
		t.Errorf("observer changed the winning mapping")
	}
	if plain.Suggested != observed.Suggested || plain.Evaluated != observed.Evaluated {
		t.Errorf("observer changed counters: %d/%d vs %d/%d",
			plain.Suggested, plain.Evaluated, observed.Suggested, observed.Evaluated)
	}
	if math.Abs(plain.FinalSec-observed.FinalSec) > 1e-12 {
		t.Errorf("observer changed the measured time: %v vs %v", plain.FinalSec, observed.FinalSec)
	}
	if len(plain.Trace) != len(observed.Trace) {
		t.Errorf("observer changed the trace: %d vs %d points", len(plain.Trace), len(observed.Trace))
	}
}

// TestDeltaAttributionCounters pins the commit-path attribution counters
// of two CCD searches (seed 7, 2 Shepard nodes, the CLI's default options):
// stencil at its default input and circuit n50w200. Classification and the
// logical plan-cache counter are functions of the commit sequence alone,
// so a change to either the classification bounds or the search
// trajectory shows here.
func TestDeltaAttributionCounters(t *testing.T) {
	for _, tc := range []struct {
		app, input                  string
		incremental, fallback, miss float64
	}{
		{"stencil", "", 2, 35, 37},
		{"circuit", "n50w200", 13, 21, 34},
	} {
		app, err := apps.Get(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		input := tc.input
		if input == "" {
			input = app.Inputs[2][0]
		}
		g, err := app.Build(input, 2)
		if err != nil {
			t.Fatal(err)
		}
		opts := DefaultOptions()
		opts.Seed = 7
		opts.Observer = &telemetry.Observer{Metrics: telemetry.NewRegistry()}
		rep, err := Search(cluster.Shepard(2), g, search.NewCCD(), opts, search.Budget{})
		if err != nil {
			t.Fatalf("%s: %v", tc.app, err)
		}
		for name, want := range map[string]float64{
			"sim.eval.incremental":  tc.incremental,
			"sim.eval.fallback":     tc.fallback,
			"sim.plan_cache.misses": tc.miss,
		} {
			if got := rep.Metrics[name]; got != want {
				t.Errorf("%s %s: %s = %v, want %v", tc.app, input, name, got, want)
			}
		}
	}
}
