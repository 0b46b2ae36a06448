// Failure-handling tests for the real-runtime evaluator: validation
// failures are free and permanent, out-of-memory failures charge the
// driver's failure token and are never measured again, and cancellation
// never poisons a candidate.

package rt

import (
	"context"
	"errors"
	"math"
	"testing"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

func TestOOMIsNotRetried(t *testing.T) {
	m := DefaultMachine(1)
	m.Arenas[machine.FrameBuffer].Capacity = 1 << 20 // smaller than "state"
	g := rtGraph()
	ev := NewEvaluator(NewExecutor(m, g), 2)
	mp := mapping.Default(g, m.Model())
	for i := range g.Tasks { // strict Frame-Buffer-only: no list to spill down
		d := mp.Decision(taskir.TaskID(i))
		for a := range d.Mems {
			d.Mems[a] = []machine.MemKind{machine.FrameBuffer}
		}
	}
	res := ev.Evaluate(mp)
	if !res.Failed || !math.IsInf(res.MeanSec, 1) {
		t.Fatalf("verdict = %+v, want an out-of-memory failure", res)
	}
	if got := ev.SearchTimeSec(); got != failureTokenSec {
		t.Errorf("SearchTimeSec = %v, want the bare failure token %v", got, failureTokenSec)
	}
	if s, ok := ev.DB.Lookup(mp.Key()); !ok || !s.Failed {
		t.Error("OOM candidate should be recorded as failed")
	}
	// A second suggestion is served from the database, not re-executed.
	if res := ev.Evaluate(mp); !res.Failed || !res.Cached {
		t.Errorf("second evaluation = %+v, want a cached failure", res)
	}
	if got := ev.SearchTimeSec(); got != failureTokenSec || ev.Evaluated != 0 {
		t.Errorf("OOM candidate re-measured: SearchTimeSec = %v, Evaluated = %d", got, ev.Evaluated)
	}
}

func TestValidationFailureIsFreeAndPermanent(t *testing.T) {
	m := DefaultMachine(1)
	g := rtGraph()
	ev := NewEvaluator(NewExecutor(m, g), 2)
	mp := mapping.Default(g, m.Model())
	mp.SetArgMemRaw(0, 0, machine.SysMem) // GPU task + SysMem: invalid
	res := ev.Evaluate(mp)
	if !res.Failed {
		t.Fatal("invalid mapping should fail")
	}
	if got := ev.SearchTimeSec(); got != 0 || ev.Evaluated != 0 {
		t.Errorf("validation failure charged %v seconds over %d evaluations", got, ev.Evaluated)
	}
	if s, ok := ev.DB.Lookup(mp.Key()); !ok || !s.Failed {
		t.Error("invalid candidate should be recorded as failed")
	}
}

func TestCancellationDoesNotPoisonCandidate(t *testing.T) {
	m := DefaultMachine(1)
	g := rtGraph()
	ev := NewEvaluator(NewExecutor(m, g), 2)
	mp := mapping.Default(g, m.Model())
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the interrupt has landed before the candidate runs
	ev.Ctx = ctx
	res := ev.Evaluate(mp)
	if !res.Failed {
		t.Fatal("cancelled evaluation should report failure to stop the sweep")
	}
	if _, ok := ev.DB.Lookup(mp.Key()); ok {
		t.Fatal("cancelled candidate was recorded — a resumed search could never measure it")
	}
	if got := ev.SearchTimeSec(); got != 0 {
		t.Errorf("cancelled evaluation charged %v seconds", got)
	}
}

func TestExecuteContextCancelled(t *testing.T) {
	m := DefaultMachine(1)
	g := rtGraph()
	ex := NewExecutor(m, g)
	mp := mapping.Default(g, m.Model())

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.ExecuteContext(ctx, mp); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The executor stays reusable after a cancelled run.
	if _, err := ex.Execute(mp); err != nil {
		t.Fatalf("executor unusable after cancellation: %v", err)
	}
}
