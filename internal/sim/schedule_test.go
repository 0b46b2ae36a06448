// Tests of the recorded schedule itself: the record counts of the
// structure pass, and the helpers the fold and delta tests share. The
// fold's Results are pinned by the golden corpus (corpus_test.go).
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

// execCount returns how many task executions a full run of plan records:
// one per (launch, node with points).
func execCount(plan *PlacementPlan) int {
	perIter := 0
	for _, tid := range plan.topo.launch {
		t := plan.g.Task(tid)
		for _, n := range plan.taskNodes(tid) {
			if plan.pointsOnNode(t, n) > 0 {
				perIter++
			}
		}
	}
	return plan.g.Iterations * perIter
}

// TestScheduleRecordCounts pins the record counts of the structure pass:
// one launch record per launch, one exec per (launch, node with points).
func TestScheduleRecordCounts(t *testing.T) {
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
				sch := new(state).record(plan, false)
				if len(sch.launches) != g.Iterations*len(topo.launch) || len(sch.execs) != execCount(plan) {
					t.Fatalf("%s/%d mapping %d: %d launches, %d execs; want %d, %d", name, nodes, i,
						len(sch.launches), len(sch.execs), g.Iterations*len(topo.launch), execCount(plan))
				}
			}
		}
	}
}
