// Differential tests of the recorded-schedule timing fold: for every
// bundled app, folding a recorded schedule must reproduce the live run's
// Result exactly — same floats, same event logs, same accounting — under
// noise, tracing, and explain logging. This is the foundation the
// incremental path (delta.go) stands on.
package sim

import (
	"reflect"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// appProblems returns every bundled app built at its default input on a
// small Shepard cluster, with the given node count.
func appProblems(t testing.TB, nodes int) map[string]*taskir.Graph {
	t.Helper()
	out := make(map[string]*taskir.Graph)
	for _, name := range apps.Names() {
		app, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs, ok := app.Inputs[nodes]
		if !ok || len(inputs) == 0 {
			t.Fatalf("app %s has no input for %d nodes", name, nodes)
		}
		g, err := app.Build(inputs[0], nodes)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = g
	}
	return out
}

// requireSameResult fails unless got and want are deeply equal, with a
// field-by-field diagnosis on mismatch.
func requireSameResult(t *testing.T, ctx string, got, want *Result) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if got.MakespanSec != want.MakespanSec {
		t.Errorf("%s: makespan %v != %v", ctx, got.MakespanSec, want.MakespanSec)
	}
	if got.EnergyJoules != want.EnergyJoules {
		t.Errorf("%s: energy %v != %v", ctx, got.EnergyJoules, want.EnergyJoules)
	}
	if got.BytesCopied != want.BytesCopied || got.BytesOnNetwork != want.BytesOnNetwork || got.NumCopies != want.NumCopies {
		t.Errorf("%s: copies {%d %d %d} != {%d %d %d}", ctx,
			got.BytesCopied, got.BytesOnNetwork, got.NumCopies,
			want.BytesCopied, want.BytesOnNetwork, want.NumCopies)
	}
	if !reflect.DeepEqual(got.TaskWallSec, want.TaskWallSec) {
		t.Errorf("%s: TaskWallSec differs: %v != %v", ctx, got.TaskWallSec, want.TaskWallSec)
	}
	if !reflect.DeepEqual(got.ProcBusySec, want.ProcBusySec) {
		t.Errorf("%s: ProcBusySec differs: %v != %v", ctx, got.ProcBusySec, want.ProcBusySec)
	}
	if !reflect.DeepEqual(got.PeakMemBytes, want.PeakMemBytes) {
		t.Errorf("%s: PeakMemBytes differs", ctx)
	}
	if got.Spills != want.Spills {
		t.Errorf("%s: spills %d != %d", ctx, got.Spills, want.Spills)
	}
	if len(got.Events) != len(want.Events) {
		t.Errorf("%s: %d events != %d", ctx, len(got.Events), len(want.Events))
	} else {
		for i := range got.Events {
			if got.Events[i] != want.Events[i] {
				t.Errorf("%s: event %d: %+v != %+v", ctx, i, got.Events[i], want.Events[i])
				break
			}
		}
	}
	if len(got.Copies) != len(want.Copies) {
		t.Errorf("%s: %d copy events != %d", ctx, len(got.Copies), len(want.Copies))
	} else {
		for i := range got.Copies {
			if got.Copies[i] != want.Copies[i] {
				t.Errorf("%s: copy %d: %+v != %+v", ctx, i, got.Copies[i], want.Copies[i])
				break
			}
		}
	}
	if !t.Failed() {
		t.Errorf("%s: results differ in an uncompared field", ctx)
	}
}

// TestFoldMatchesLiveRun replays each app's default mapping through the
// schedule fold and requires the Result to equal a fresh full simulation
// bit for bit — with noise, tracing, and copy logging all on.
func TestFoldMatchesLiveRun(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		for name, g := range appProblems(t, nodes) {
			m := cluster.Shepard(nodes)
			mp := mapping.Default(g, m.Model())
			inst := New(m, g)
			key := mp.Key()
			cfg := Config{NoiseSigma: 0.04, Seed: 42, Trace: true, Explain: true}

			want, err := Simulate(m, g, mp, cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, nodes, err)
			}
			// First RunKeyed records; second folds the cached schedule.
			first, err := inst.RunKeyed(key, mp, cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, nodes, err)
			}
			requireSameResult(t, name+"/recorded-run", first, want)
			if inst.schedFor(key) == nil {
				t.Fatalf("%s/%d: no schedule cached after RunKeyed", name, nodes)
			}
			folded, err := inst.RunKeyed(key, mp, cfg)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, nodes, err)
			}
			requireSameResult(t, name+"/fold", folded, want)
			// A different seed/noise draw must flow through the fold too.
			cfg2 := Config{NoiseSigma: 0.1, Seed: 7, Trace: true, Explain: true}
			want2, err := Simulate(m, g, mp, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			folded2, err := inst.RunKeyed(key, mp, cfg2)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, name+"/fold-reseeded", folded2, want2)
			if t.Failed() {
				t.Fatalf("%s/%d: fold mismatch", name, nodes)
			}
		}
	}
}

// recordUnder runs a recorded live simulation of plan under cfg and
// returns its finalized schedule.
func recordUnder(plan *PlacementPlan, cfg Config) *schedule {
	var s state
	s.init(plan, cfg)
	s.rec = s.scratch.reset(false)
	s.run()
	s.rec.sch.finalize()
	return &s.rec.sch
}

// execCount returns how many task executions a full run of plan records:
// one per (launch, node with points).
func execCount(plan *PlacementPlan) int {
	perIter := 0
	for _, tid := range plan.topo.launch {
		t := plan.g.Task(tid)
		for _, n := range plan.taskNodes[tid] {
			if plan.pointsOnNode(t, n) > 0 {
				perIter++
			}
		}
	}
	return plan.g.Iterations * perIter
}

// TestScheduleIndependentOfNoise checks that the structure pass never
// reads the simulated clock: a schedule recorded under noise equals the
// noise-free one exactly, so Instance may record every candidate once
// with Config{} and fold all repeats from it. It also pins the record
// counts: one launch record per launch, one exec per (launch, node with
// points).
func TestScheduleIndependentOfNoise(t *testing.T) {
	cfgs := []Config{{NoiseSigma: 0.04, Seed: 42}, {NoiseSigma: 0.1, Seed: 7}}
	for _, nodes := range []int{1, 2, 4} {
		for name, g := range appProblems(t, nodes) {
			m := cluster.Shepard(nodes)
			md := m.Model()
			mps := []*mapping.Mapping{mapping.Default(g, md)}
			rng := xrand.New(0x5C4ED + uint64(nodes))
			for i := 0; i < 4; i++ {
				mp := mps[0].CloneCOW()
				for f := 1 + rng.Intn(4); f > 0; f-- {
					applyRandomMove(rng, g, md, mp)
				}
				mps = append(mps, mp)
			}
			topo := newTopology(m, g)
			for i, mp := range mps {
				plan, err := planPlacement(topo, mp)
				if err != nil {
					continue // OOM: nothing is recorded
				}
				want := recordUnder(plan, Config{})
				if len(want.launches) != g.Iterations*len(topo.launch) || len(want.execs) != execCount(plan) {
					t.Fatalf("%s/%d mapping %d: %d launches, %d execs; want %d, %d", name, nodes, i,
						len(want.launches), len(want.execs), g.Iterations*len(topo.launch), execCount(plan))
				}
				for _, cfg := range cfgs {
					if got := recordUnder(plan, cfg); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%d mapping %d: schedule under %+v differs from the noise-free one", name, nodes, i, cfg)
					}
				}
			}
		}
	}
}
