// Tests of the recorded schedule itself: the record counts of the
// structure pass, its steady-state compression, and the helpers the other
// sim tests share. The fold's Results are pinned by the golden corpus
// (corpus_test.go).
package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
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

// TestScheduleRecordCounts pins the whole-run record counts of the
// structure pass: written out in full, a schedule has one launch record
// per launch and one exec per (launch, node with points), and its
// numExecs and numCopies count those execs and ops.
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
				sch := new(state).record(plan)
				full := expand(sch)
				if len(full.launches) != g.Iterations*len(topo.launch) || len(full.execs) != execCount(plan) {
					t.Fatalf("%s/%d mapping %d: %d launches, %d execs; want %d, %d", name, nodes, i,
						len(full.launches), len(full.execs), g.Iterations*len(topo.launch), execCount(plan))
				}
				if sch.numExecs != len(full.execs) || sch.numCopies != len(full.ops) {
					t.Fatalf("%s/%d mapping %d: numExecs %d, numCopies %d; written out %d, %d", name, nodes, i,
						sch.numExecs, sch.numCopies, len(full.execs), len(full.ops))
				}
			}
		}
	}
}

// recordEveryLaunch is the reference recording of plan: the structure
// pass run over every launch of every iteration, with no steady-state
// compression.
func recordEveryLaunch(plan *PlacementPlan) *schedule {
	s := new(state)
	s.init(plan)
	s.scratch.reset()
	for iter := 0; iter < s.g.Iterations; iter++ {
		for _, tid := range s.topo.launch {
			s.runTask(tid)
			s.scratch.endLaunch()
		}
	}
	s.scratch.sch.finalize()
	return &s.scratch.sch
}

// expand returns the records of sch written out in full: its recorded
// launches followed by reps copies of its body, each copy's exec op ranges
// and launch ends rebased onto the written-out streams. The copy totals
// are recomputed from the written-out ops.
func expand(sch *schedule) *schedule {
	full := &schedule{
		ops:      slices.Clone(sch.ops),
		execs:    slices.Clone(sch.execs),
		launches: slices.Clone(sch.launches),
	}
	opLo, exLo := sch.bodyStart()
	for r := 0; r < sch.reps; r++ {
		opShift := int32(len(full.ops) - opLo)
		exShift := int32(len(full.execs) - exLo)
		full.ops = append(full.ops, sch.ops[opLo:]...)
		for _, x := range sch.execs[exLo:] {
			x.opOff += opShift
			x.opEnd += opShift
			full.execs = append(full.execs, x)
		}
		for _, l := range sch.launches[sch.body:] {
			full.launches = append(full.launches, launchRec{opEnd: l.opEnd + opShift, execEnd: l.execEnd + exShift})
		}
	}
	full.finalize()
	return full
}

// requireSteadyMatchesFull records plan with state.record, which stops
// running launches once the coherence state repeats, and with
// recordEveryLaunch, and fails unless the expanded record holds the same
// records as the reference and the compressed record the same copy totals
// and exec count. It returns the iteration from which record repeated its
// body, or 0 if it never reached a fixed point.
func requireSteadyMatchesFull(t *testing.T, ctx string, plan *PlacementPlan) int {
	t.Helper()
	got := new(state).record(plan)
	full := expand(got)
	want := recordEveryLaunch(plan)
	perIter := len(plan.topo.launch)
	from := 0
	if got.reps > 0 {
		from = len(got.launches) / perIter
	}
	if !slices.Equal(full.ops, want.ops) || !slices.Equal(full.execs, want.execs) ||
		!slices.Equal(full.launches, want.launches) {
		t.Errorf("%s: record (body repeated from iteration %d) expands to %d ops, %d execs, %d launches; "+
			"full record %d, %d, %d, or the records differ", ctx, from,
			len(full.ops), len(full.execs), len(full.launches),
			len(want.ops), len(want.execs), len(want.launches))
	}
	if got.bytesCopied != want.bytesCopied || got.netBytes != want.netBytes ||
		got.numCopies != want.numCopies || got.numExecs != want.numExecs {
		t.Errorf("%s: copy totals and execs {%d %d %d %d} != {%d %d %d %d}", ctx,
			got.bytesCopied, got.netBytes, got.numCopies, got.numExecs,
			want.bytesCopied, want.netBytes, want.numCopies, want.numExecs)
	}
	return from
}

// steadyGraph builds a two-task loop over one collection c: "r" reads c on
// the CPU (System memory), then "w" reads and writes it on the GPU
// (Frame-Buffer). Iteration 0 first touches c in System memory and copies
// it to the Frame-Buffer for w; from iteration 1 on, r copies w's version
// back first. The coherence state repeats only from iteration 2, so a
// fixed-point test that ignores sharedValid (shared c) or shardValid
// (partitioned c) copies iteration 0 into iteration 1 and records wrongly.
func steadyGraph(partitioned bool) *taskir.Graph {
	g := taskir.NewGraph("steady")
	c := g.AddCollection(taskir.Collection{Name: "c", Space: "s", Lo: 0, Hi: 64 << 20, Partitioned: partitioned})
	both := map[machine.ProcKind]taskir.Variant{
		machine.CPU: {Efficiency: 1, WorkPerPoint: 1e6},
		machine.GPU: {Efficiency: 1, WorkPerPoint: 1e6},
	}
	g.AddTask(taskir.GroupTask{Name: "r", Points: 2, Variants: both,
		Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 1 << 20}}})
	g.AddTask(taskir.GroupTask{Name: "w", Points: 2, Variants: both,
		Args: []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 20}}})
	g.Iterations = 5
	return g
}

// TestSteadyRecordMatchesFull is the oracle of the steady-state
// compression: a record, which stops at the coherence fixed point and
// repeats its last iteration, must expand to a recording that runs every
// launch, for every bundled app on 1, 2 and 4 nodes under the default
// mapping and the corpus walks, and for hand-built graphs that exercise
// each part of the coherence state. It also requires that the compression
// fires: every default mapping and every hand-built graph must repeat its
// body from iteration 2, so a detection that never fires cannot pass.
func TestSteadyRecordMatchesFull(t *testing.T) {
	placed, steady := 0, 0
	for _, nodes := range []int{1, 2, 4} {
		m := cluster.Shepard(nodes)
		md := m.Model()
		probs := appProblems(t, nodes)
		for ai, name := range apps.Names() {
			g := probs[name]
			topo := newTopology(m, g)
			rng := xrand.New(0x57EAD + uint64(nodes)*131 + uint64(ai))
			for i, mp := range corpusMappings(g, md, rng) {
				plan, err := planPlacement(topo, mp)
				if err != nil {
					continue // OOM: nothing is recorded
				}
				ctx := fmt.Sprintf("%s/n%d/m%d", name, nodes, i)
				from := requireSteadyMatchesFull(t, ctx, plan)
				if i == 0 && from != 2 {
					t.Errorf("%s: the default mapping repeats its body from iteration %d, want 2", ctx, from)
				}
				placed++
				if from > 0 {
					steady++
				}
			}
		}
	}
	t.Logf("%d of %d placeable app mappings reached a coherence fixed point", steady, placed)

	// Hand-built graphs, each reaching its fixed point at iteration 2.
	// The ghost graph is a distributed read-write of a shared collection:
	// after iteration 0 the valid set is empty again and only the partial
	// marker records that readers must gather, so a fixed-point test that
	// ignores partial copies iteration 0 into iteration 1.
	ghost := taskir.NewGraph("ghost")
	sh := ghost.AddCollection(taskir.Collection{Name: "sh", Space: "s", Lo: 0, Hi: 64 << 20})
	ghost.AddTask(taskir.GroupTask{Name: "writer", Points: 8,
		Variants: map[machine.ProcKind]taskir.Variant{machine.GPU: {Efficiency: 1, WorkPerPoint: 1e6}},
		Args:     []taskir.Arg{{Collection: sh.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 8 << 20}}})
	ghost.Iterations = 5
	for _, tc := range []struct {
		name  string
		nodes int
		g     *taskir.Graph
	}{
		{"shared", 1, steadyGraph(false)},
		{"partitioned", 1, steadyGraph(true)},
		{"ghost", 2, ghost},
	} {
		m := cluster.Shepard(tc.nodes)
		md := m.Model()
		mp := mapping.Default(tc.g, md)
		if len(tc.g.Tasks) > 1 {
			mp.SetProc(0, machine.CPU)
			mp.RebuildPriorityLists(md, 0)
		}
		plan, err := planPlacement(newTopology(m, tc.g), mp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if from := requireSteadyMatchesFull(t, tc.name, plan); from != 2 {
			t.Errorf("%s: body repeated from iteration %d, want 2", tc.name, from)
		}
	}
}
