package driver

import (
	"reflect"
	"testing"
	"time"

	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/taskir"
)

// TestMeasureRunsOneCall pins the measurement protocol: measureRuns looks
// the candidate up once (one RunRepeats call, so one plan-cache probe),
// runs only while it holds a slot of the semaphore and releases it, and
// returns the results of seeds runSeed(base, i) in repeat order; a
// placement failure becomes every repeat's error.
func TestMeasureRunsOneCall(t *testing.T) {
	const repeats, base = 7, uint64(0xC0FFEE)
	m := cluster.Shepard(1)
	g := driverGraph(t)
	mp := mapping.Default(g, m.Model())

	// One slot, taken before the call: measureRuns must wait for it (a call
	// that skipped the acquire would return early), and a call that took a
	// second slot would block forever.
	sem := make(chan struct{}, 1)
	sem <- struct{}{}
	inst := sim.New(m, g)
	var results []*sim.Result
	var errs []error
	done := make(chan struct{})
	go func() {
		results, errs = measureRuns(inst, mp.Key(), mp, repeats, 0.04, base, sem)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("measureRuns returned while every semaphore slot was held")
	case <-time.After(50 * time.Millisecond):
	}
	<-sem
	<-done
	if hits, misses := inst.PlanCacheStats(); hits+misses != 1 {
		t.Errorf("%d plan lookups, want 1 (one RunRepeats call)", hits+misses)
	}
	if len(sem) != 0 {
		t.Errorf("%d semaphore slots held after the call, want 0", len(sem))
	}
	if len(results) != repeats || len(errs) != repeats {
		t.Fatalf("got %d results, %d errors; want %d each", len(results), len(errs), repeats)
	}
	ref := sim.New(m, g)
	for i := range repeats {
		want, err := ref.RunKeyed(mp.Key(), mp, sim.Config{NoiseSigma: 0.04, Seed: runSeed(base, i)})
		if err != nil {
			t.Fatal(err)
		}
		if errs[i] != nil || !reflect.DeepEqual(results[i], want) {
			t.Errorf("repeat %d: result %v, error %v; want the run under runSeed(base, %d)", i, results[i], errs[i], i)
		}
	}

	// A footprint beyond FB+ZC: the default GPU mapping cannot be placed.
	og := taskir.NewGraph("oom")
	c := og.AddCollection(taskir.Collection{Name: "huge", Space: "s", Lo: 0, Hi: 100 << 30, Partitioned: true})
	og.AddTask(taskir.GroupTask{Name: "t", Points: 4,
		Variants: map[machine.ProcKind]taskir.Variant{machine.GPU: {Efficiency: 1, WorkPerPoint: 1e6}},
		Args:     []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 20}}})
	og.Iterations = 2
	oom := mapping.Default(og, m.Model())
	results, errs = measureRuns(sim.New(m, og), oom.Key(), oom, repeats, 0.04, base, sem)
	if len(results) != repeats || len(errs) != repeats {
		t.Fatalf("OOM: got %d results, %d errors; want %d each", len(results), len(errs), repeats)
	}
	if _, ok := errs[0].(*sim.OOMError); !ok {
		t.Fatalf("OOM: repeat 0 error %v, want *sim.OOMError", errs[0])
	}
	for i := range repeats {
		if errs[i] != errs[0] || results[i] != nil {
			t.Errorf("OOM repeat %d: result %v, error %v; want error %v", i, results[i], errs[i], errs[0])
		}
	}
}
