// Checkpoint/resume and prefetch-gating tests for the driver evaluator.

package driver

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"automap/internal/checkpoint"
	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/search"
)

func TestPrefetchSkipsWhenBudgetLeavesNoRoom(t *testing.T) {
	forceParallel(t, 4)
	m := cluster.Shepard(1)
	g := driverGraph(t)
	opts := quickOpts()
	opts.Workers = 4
	md := m.Model()
	cands := []*mapping.Mapping{mapping.Default(g, md)}

	// Unbounded budget: speculation proceeds.
	ev := NewEvaluator(m, g, opts)
	ev.bindSearch(checkpoint.Snapshot{}, search.Budget{}, nil)
	ev.Prefetch(cands)
	if len(ev.spec) != 1 {
		t.Fatalf("unbounded prefetch speculated %d candidates, want 1", len(ev.spec))
	}

	// Suggestion budget exhausted: nothing may speculate.
	ev = NewEvaluator(m, g, opts)
	ev.Suggested = 10
	ev.bindSearch(checkpoint.Snapshot{}, search.Budget{MaxSuggestions: 10}, nil)
	ev.Prefetch(cands)
	if len(ev.spec) != 0 {
		t.Fatal("prefetch speculated past an exhausted suggestion budget")
	}

	// Time budget exhausted.
	ev = NewEvaluator(m, g, opts)
	ev.searchSec = 2
	ev.bindSearch(checkpoint.Snapshot{}, search.Budget{MaxSearchSec: 1}, nil)
	ev.Prefetch(cands)
	if len(ev.spec) != 0 {
		t.Fatal("prefetch speculated past an exhausted time budget")
	}

	// Cancelled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev = NewEvaluator(m, g, opts)
	ev.bindSearch(checkpoint.Snapshot{}, search.Budget{Context: ctx}, nil)
	ev.Prefetch(cands)
	if len(ev.spec) != 0 {
		t.Fatal("prefetch speculated after cancellation")
	}
}

func TestPrefetchCappedByRemainingSuggestions(t *testing.T) {
	forceParallel(t, 4)
	m := cluster.Shepard(1)
	g := driverGraph(t)
	opts := quickOpts()
	opts.Workers = 4
	md := m.Model()
	a := mapping.Default(g, md)
	b := a.Clone()
	b.SetDistribute(g.Tasks[0].ID, !a.Decision(g.Tasks[0].ID).Distribute)
	cands := []*mapping.Mapping{a, b}

	ev := NewEvaluator(m, g, opts)
	ev.Suggested = 9 // budget leaves room for exactly one more proposal
	ev.bindSearch(checkpoint.Snapshot{}, search.Budget{MaxSuggestions: 10}, nil)
	ev.Prefetch(cands)
	if len(ev.spec) != 1 {
		t.Fatalf("prefetch speculated %d candidates with room for 1", len(ev.spec))
	}
}

func TestCheckpointWrittenAndResumeReplays(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)
	path := filepath.Join(t.TempDir(), "search.ckpt")

	opts := quickOpts()
	opts.CheckpointPath = path
	opts.CheckpointEvery = 2
	rep1, err := Search(m, g, search.NewCCD(), opts, search.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.CheckpointErr != nil {
		t.Fatal(rep1.CheckpointErr)
	}

	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Evals) == 0 {
		t.Fatal("checkpoint recorded no evaluations")
	}
	if snap.Evaluated != rep1.Evaluated || snap.SearchSec != rep1.SearchSec {
		t.Errorf("snapshot counters (%d, %v) disagree with report (%d, %v)",
			snap.Evaluated, snap.SearchSec, rep1.Evaluated, rep1.SearchSec)
	}

	// Resuming a completed search replays the whole trajectory from the
	// log (no re-simulation of the prefix) and reproduces the report.
	opts2 := quickOpts()
	opts2.ResumeFrom = snap
	rep2, err := Search(m, g, search.NewCCD(), opts2, search.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if rep1.Best.Key() != rep2.Best.Key() {
		t.Errorf("resumed best differs: %s vs %s", rep1.Best.Key(), rep2.Best.Key())
	}
	if rep1.FinalSec != rep2.FinalSec || rep1.SearchSec != rep2.SearchSec {
		t.Errorf("resumed times differ: final %v/%v search %v/%v",
			rep1.FinalSec, rep2.FinalSec, rep1.SearchSec, rep2.SearchSec)
	}
	if rep1.Suggested != rep2.Suggested || rep1.Evaluated != rep2.Evaluated {
		t.Errorf("resumed counters differ: suggested %d/%d evaluated %d/%d",
			rep1.Suggested, rep2.Suggested, rep1.Evaluated, rep2.Evaluated)
	}
}

func TestResumeRejectsMismatchedFingerprint(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)
	path := filepath.Join(t.TempDir(), "search.ckpt")

	opts := quickOpts()
	opts.CheckpointPath = path
	if _, err := Search(m, g, search.NewCCD(), opts, search.Budget{}); err != nil {
		t.Fatal(err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	// Different seed: the replayed measurements would not be the ones
	// this search performs.
	opts2 := quickOpts()
	opts2.Seed = opts.Seed + 1
	opts2.ResumeFrom = snap
	_, err = Search(m, g, search.NewCCD(), opts2, search.Budget{})
	if err == nil || !strings.Contains(err.Error(), "cannot resume") {
		t.Fatalf("mismatched resume err = %v, want fingerprint rejection", err)
	}

	// Different algorithm.
	opts3 := quickOpts()
	opts3.ResumeFrom = snap
	if _, err := Search(m, g, search.NewCD(), opts3, search.Budget{}); err == nil {
		t.Fatal("resume accepted a snapshot from a different algorithm")
	}
}

func TestInterruptedSearchSkipsFinalPhase(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the search begins: stop at the first check

	opts := quickOpts()
	opts.CheckpointPath = filepath.Join(t.TempDir(), "search.ckpt")
	rep, err := Search(m, g, search.NewCCD(), opts, search.Budget{Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted() || rep.StopReason != search.StopInterrupted {
		t.Fatalf("StopReason = %q, want %q", rep.StopReason, search.StopInterrupted)
	}
	if rep.Best != nil {
		t.Error("interrupted report carries a final Best")
	}
	if rep.CheckpointErr != nil {
		t.Fatal(rep.CheckpointErr)
	}
	if _, err := checkpoint.Load(opts.CheckpointPath); err != nil {
		t.Fatalf("no final checkpoint after interrupt: %v", err)
	}
}
