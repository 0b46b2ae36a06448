package main

import (
	"context"
	"io"
	"testing"
	"time"
)

// TestServePassSmoke runs a short traced serve pass against a real
// in-process fleet: every request must pass its checks, every cold search
// must finish, and the middleware must have timed the tagged requests. Run
// with -race it exercises the generator's shared state from all workers.
func TestServePassSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a fleet and runs searches")
	}
	cfg := runConfig{
		workload: "serve-fleet-mixed",
		seed:     3,
		window:   800 * time.Millisecond,
		scratch:  t.TempDir(),
		log:      io.Discard,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sp, setupS, err := runServePass(ctx, cfg, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if setupS <= 0 {
		t.Errorf("setup took %v s", setupS)
	}
	if n := sp.failures(func(s string) { t.Log(s) }); n != 0 {
		t.Fatalf("%d of %d requests failed", n, len(sp.ops))
	}
	colds, handled := 0, 0
	for i, op := range sp.ops {
		if op.kind == opCold {
			colds++
		}
		if sp.results[i].handler > 0 {
			handled++
		}
	}
	if len(sp.ttr) != colds {
		t.Errorf("%d cold searches finished, %d submitted", len(sp.ttr), colds)
	}
	if handled == 0 {
		t.Error("the replica middleware timed no request")
	}
	if len(sp.samples) != len(sp.steps)+1 {
		t.Errorf("%d samples for %d steps", len(sp.samples), len(sp.steps))
	}
}
