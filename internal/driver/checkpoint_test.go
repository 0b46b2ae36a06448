// Checkpoint/resume tests for the driver evaluator.

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

// TestCheckpointlessSearchKeepsNoLog: only checkpoint writes read the
// commit log, so an evaluator without a checkpoint path keeps none; with
// one, every committed measurement is logged in commit order.
func TestCheckpointlessSearchKeepsNoLog(t *testing.T) {
	m := cluster.Shepard(1)
	g := driverGraph(t)
	a := mapping.Default(g, m.Model())
	b := a.Clone()
	b.SetDistribute(g.Tasks[0].ID, !a.Decision(g.Tasks[0].ID).Distribute)
	for _, path := range []string{"", filepath.Join(t.TempDir(), "search.ckpt")} {
		opts := quickOpts()
		opts.CheckpointPath = path
		ev := NewEvaluator(m, g, opts)
		ev.Evaluate(a)
		ev.Evaluate(b)
		ev.Evaluate(a.Clone()) // cached: no new commit
		if ev.Evaluated != 2 {
			t.Fatalf("path %q: %d evaluations measured, want 2", path, ev.Evaluated)
		}
		want := 0
		if path != "" {
			want = 2
		}
		if len(ev.log) != want {
			t.Errorf("path %q: commit log holds %d entries, want %d", path, len(ev.log), want)
		}
	}
}
