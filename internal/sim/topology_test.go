// Tests of the topology tables: the reduced launch DAG the timing fold
// computes ready times from.
package sim

import (
	"fmt"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// bruteConflict reports whether launch j, earlier in the launch order,
// must finish before launch i starts: j writes an alias i reads, or j
// reads or writes an alias i writes. It reads the graph directly, not the
// topology's argDeps.
func bruteConflict(g *taskir.Graph, j, i taskir.TaskID) bool {
	for _, a := range g.Task(j).Args {
		for _, b := range g.Task(i).Args {
			if g.AliasID(a.Collection) != g.AliasID(b.Collection) {
				continue
			}
			if b.Privilege.Reads() && a.Privilege.Writes() || b.Privilege.Writes() {
				return true
			}
		}
	}
	return false
}

// closure returns the transitive closure of the relation edge over n
// launches, edge(j, i) defined for j < i only.
func closure(n int, edge func(j, i int) bool) [][]bool {
	reach := make([][]bool, n) // reach[i][j]: j is an ancestor of i
	for i := range reach {
		reach[i] = make([]bool, n)
		for j := 0; j < i; j++ {
			if !edge(j, i) {
				continue
			}
			reach[i][j] = true
			for k := 0; k < j; k++ {
				if reach[j][k] {
					reach[i][k] = true
				}
			}
		}
	}
	return reach
}

// requireLaunchDAGExact checks topo's predecessor lists over a
// three-iteration unroll of the launch order against the brute-force
// conflict relation: every entry is a direct conflict at most perIter
// back, and the lists' transitive closure equals the relation's. It
// returns the mean argument count and the mean list length over the
// steady iteration's positions.
func requireLaunchDAGExact(t *testing.T, ctx string, g *taskir.Graph, topo *topology) (args, preds float64) {
	t.Helper()
	p := len(topo.launch)
	if len(topo.predOff) != 2*p+1 {
		t.Fatalf("%s: %d list offsets for %d positions, want %d", ctx, len(topo.predOff), p, 2*p+1)
	}
	u := 3 * p
	row := func(i int) int {
		if i < p {
			return i
		}
		return p + i%p
	}
	list := func(i int) []int32 { return topo.preds[topo.predOff[row(i)]:topo.predOff[row(i)+1]] }
	direct := func(j, i int) bool { return bruteConflict(g, topo.launch[j%p], topo.launch[i%p]) }
	listed := make([][]bool, u)
	for i := 0; i < u; i++ {
		listed[i] = make([]bool, u)
		for _, d := range list(i) {
			j := i - int(d)
			switch {
			case d < 1 || int(d) > p:
				t.Fatalf("%s: launch %d lists back-offset %d outside [1, %d]", ctx, i, d, p)
			case j < 0:
				t.Fatalf("%s: launch %d lists launch %d before the first", ctx, i, j)
			case !direct(j, i):
				t.Fatalf("%s: launch %d lists launch %d, which it does not conflict with", ctx, i, j)
			}
			listed[i][j] = true
		}
	}
	want := closure(u, direct)
	got := closure(u, func(j, i int) bool { return listed[i][j] })
	for i := 0; i < u; i++ {
		for j := 0; j < i; j++ {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: launch %d reaches launch %d through the lists: %v, through the conflicts: %v",
					ctx, i, j, got[i][j], want[i][j])
			}
		}
	}
	if p == 0 {
		return 0, 0
	}
	for pos, tid := range topo.launch {
		args += float64(len(topo.argDeps[tid]))
		preds += float64(len(list(p + pos)))
	}
	return args / float64(p), preds / float64(p)
}

// loopGraph builds a loop of tasks in launch order, task i taking args[i]
// over collections c0, c1, ... (nc of them).
func loopGraph(name string, iters, nc int, args ...[]taskir.Arg) *taskir.Graph {
	g := taskir.NewGraph(name)
	for c := 0; c < nc; c++ {
		g.AddCollection(taskir.Collection{Name: fmt.Sprintf("c%d", c), Space: "s", Lo: 0, Hi: 1 << 20})
	}
	cpu := map[machine.ProcKind]taskir.Variant{machine.CPU: {Efficiency: 1, WorkPerPoint: 1e6}}
	for i, a := range args {
		g.AddTask(taskir.GroupTask{Name: fmt.Sprintf("t%d", i), Points: 2, Variants: cpu, Args: a})
	}
	g.Iterations = iters
	return g
}

// TestLaunchPredsExact is the oracle of the reduced launch DAG: for every
// bundled app on 1, 2 and 4 Shepard nodes and for hand-built loops, the
// predecessor lists must hold only direct conflicts at most one iteration
// back and must preserve the conflict relation's transitive closure, so
// the max over a list is the max over every conflicting launch.
func TestLaunchPredsExact(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		m := cluster.Shepard(nodes)
		probs := appProblems(t, nodes)
		for _, name := range apps.Names() {
			g := probs[name]
			args, preds := requireLaunchDAGExact(t, fmt.Sprintf("%s/n%d", name, nodes), g, newTopology(m, g))
			t.Logf("%s/n%d: %d launches per iteration, mean %.2f args, mean %.2f reduced predecessors",
				name, nodes, len(launchOrder(g)), args, preds)
		}
	}

	ro := func(c taskir.CollectionID) taskir.Arg {
		return taskir.Arg{Collection: c, Privilege: taskir.ReadOnly, BytesPerPoint: 1 << 10}
	}
	wo := func(c taskir.CollectionID) taskir.Arg {
		return taskir.Arg{Collection: c, Privilege: taskir.WriteOnly, BytesPerPoint: 1 << 10}
	}
	rw := func(c taskir.CollectionID) taskir.Arg {
		return taskir.Arg{Collection: c, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 10}
	}
	// A random loop of 40 launches, so the two-iteration unroll spans
	// two bitset words (the bundled apps fit in one).
	rng := xrand.New(0xDA6)
	privs := []func(taskir.CollectionID) taskir.Arg{ro, wo, rw}
	wide := make([][]taskir.Arg, 40)
	for i := range wide {
		for a := rng.Intn(3); a > 0; a-- {
			wide[i] = append(wide[i], privs[rng.Intn(3)](taskir.CollectionID(rng.Intn(6))))
		}
	}
	for _, g := range []*taskir.Graph{
		loopGraph("wide", 3, 6, wide...),
		loopGraph("one-iteration", 1, 1, []taskir.Arg{wo(0)}, []taskir.Arg{ro(0)}),
		loopGraph("two-iterations", 2, 2, []taskir.Arg{wo(0)}, []taskir.Arg{ro(0), rw(1)}),
		loopGraph("no-args", 3, 1, []taskir.Arg{rw(0)}, nil, []taskir.Arg{ro(0)}),
		loopGraph("read-only", 3, 1, []taskir.Arg{ro(0)}, []taskir.Arg{ro(0)}),
		// t0 reads c0 and t2 overwrites it, so t0's next instance waits
		// for t2 and t2 for t0 across the boundary; t1 reads c1, which
		// t3 overwrites only after t2 read it.
		loopGraph("war-across-iterations", 4, 2,
			[]taskir.Arg{ro(0)}, []taskir.Arg{ro(1)}, []taskir.Arg{wo(0), ro(1)}, []taskir.Arg{wo(1)}),
	} {
		m := cluster.Shepard(1)
		topo := newTopology(m, g)
		args, preds := requireLaunchDAGExact(t, g.Name, g, topo)
		t.Logf("%s: mean %.2f args, mean %.2f reduced predecessors", g.Name, args, preds)
		// The fold must run on every shape, including the one-iteration
		// loop that never reads a steady row.
		res, err := Simulate(m, g, mapping.Default(g, m.Model()), Config{Trace: true})
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if len(res.Events) == 0 || res.MakespanSec <= 0 {
			t.Fatalf("%s: empty result %+v", g.Name, res)
		}
	}
}
