package search

import (
	"fmt"
	"sort"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/profile"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// applyColocationRef is the co-location fixed point in its first,
// direct form: map worklists, a popTaskArg that sorts the whole worklist on
// every pop, and overlap sets rebuilt by scanning every task argument. The
// colocator must build the same candidate for every move.
func applyColocationRef(p *Problem, og *overlap.Graph, cand *mapping.Mapping, t taskir.TaskID, argIdx int, k machine.ProcKind, r machine.MemKind) {
	g := p.Graph
	md := p.Model
	c := g.Task(t).Args[argIdx].Collection
	tunable := p.tunableSet()
	frozen := func(id taskir.TaskID) bool {
		return tunable != nil && !tunable[id]
	}

	tCheck := make(map[taskir.TaskID]bool)
	cCheck := make(map[overlap.TaskArg]bool)

	origSet := overlapSetRef(g, og, t, c)
	for _, ta := range origSet {
		if frozen(ta.Task) {
			continue
		}
		if !(ta.Task == t && ta.Arg == argIdx) {
			cand.SetArgMemRaw(ta.Task, ta.Arg, r)
		}
		tCheck[ta.Task] = true
	}

	inOrigSet := func(ci taskir.CollectionID) bool {
		return ci == c || og.Connected(c, ci)
	}

	maxSteps := 8 * (g.NumCollectionArgs() + len(g.Tasks) + 8)
	for steps := 0; (len(tCheck) > 0 || len(cCheck) > 0) && steps < maxSteps; steps++ {
		for len(tCheck) > 0 {
			ti := popTaskRef(tCheck)
			task := g.Task(ti)
			for ai := range task.Args {
				prim := cand.Decision(ti).PrimaryMem(ai)
				if !md.CanAccess(cand.Decision(ti).Proc, prim) {
					if ti != t && task.HasVariant(k) && md.HasProcKind(k) {
						cand.SetProc(ti, k)
					}
					cCheck[overlap.TaskArg{Task: ti, Arg: ai, Collection: task.Args[ai].Collection}] = true
				}
			}
		}
		for len(cCheck) > 0 {
			ta := popTaskArgRef(cCheck)
			ti, ai, ci := ta.Task, ta.Arg, ta.Collection
			pk := cand.Decision(ti).Proc
			m := mapping.PreferredMem(pk)
			if !md.CanAccess(pk, m) {
				acc := md.Accessible(pk)
				if len(acc) == 0 {
					continue
				}
				m = acc[0]
			}
			if inOrigSet(ci) {
				continue
			}
			cand.SetArgMemRaw(ti, ai, m)
			for _, tj := range overlapSetRef(g, og, ti, ci) {
				if tj.Task == ti && tj.Arg == ai {
					continue
				}
				if frozen(tj.Task) {
					continue
				}
				if cand.Decision(tj.Task).PrimaryMem(tj.Arg) == m {
					continue
				}
				cand.SetArgMemRaw(tj.Task, tj.Arg, m)
				if !md.CanAccess(cand.Decision(tj.Task).Proc, m) {
					tCheck[tj.Task] = true
				}
				delete(cCheck, tj)
			}
		}
	}
	cand.Sanitize(g, md)
}

// overlapSetRef scans every task argument for collections overlapping c.
func overlapSetRef(g *taskir.Graph, og *overlap.Graph, _ taskir.TaskID, c taskir.CollectionID) []overlap.TaskArg {
	want := map[taskir.CollectionID]bool{c: true}
	for _, n := range og.Neighbors(c) {
		want[n] = true
	}
	var out []overlap.TaskArg
	for _, task := range g.Tasks {
		for a, arg := range task.Args {
			if want[arg.Collection] {
				out = append(out, overlap.TaskArg{Task: task.ID, Arg: a, Collection: arg.Collection})
			}
		}
	}
	return out
}

func popTaskRef(set map[taskir.TaskID]bool) taskir.TaskID {
	best := taskir.TaskID(-1)
	for id := range set {
		if best < 0 || id < best {
			best = id
		}
	}
	delete(set, best)
	return best
}

func popTaskArgRef(set map[overlap.TaskArg]bool) overlap.TaskArg {
	keys := make([]overlap.TaskArg, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Task != keys[j].Task {
			return keys[i].Task < keys[j].Task
		}
		return keys[i].Arg < keys[j].Arg
	})
	delete(set, keys[0])
	return keys[0]
}

// buildMoveRef builds a co-location move the first way: a deep clone of the
// incumbent, whose Sanitize visits every task and whose setters allocate
// fresh priority lists.
func buildMoveRef(p *Problem, og *overlap.Graph, inc *mapping.Mapping, tid taskir.TaskID, mv move) *mapping.Mapping {
	cand := inc.Clone()
	cand.SetProc(tid, mv.k)
	cand.RebuildPriorityLists(p.Model, tid)
	cand.SetArgMem(p.Model, tid, mv.argIdx, mv.r)
	applyColocationRef(p, og, cand, tid, mv.argIdx, mv.k, mv.r)
	return cand
}

// checkMovesAgainstRef builds every co-location move of every tunable task
// from incumbent inc over og with buildMove and with buildMoveRef, fails on
// the first pair that differs, and returns the number of moves compared.
// inc must be sanitized, as every search incumbent is.
func checkMovesAgainstRef(t *testing.T, label string, p *Problem, og *overlap.Graph, inc *mapping.Mapping) int {
	t.Helper()
	c := NewCCD()
	cl := newColocator(p, og)
	tr := newTracker(p, newFakeEval(p.Graph, p.Model, [2]taskir.CollectionID{0, 1}))
	tr.best = inc
	incKey := inc.Key()
	tunable := p.tunableSet()
	n := 0
	for _, task := range p.Graph.Tasks {
		tid := task.ID
		if tunable != nil && !tunable[tid] {
			continue
		}
		for _, mv := range c.enumerateMoves(p, tid) {
			if mv.isDist {
				continue
			}
			got := c.buildMove(p, tr, cl, tid, mv)
			want := buildMoveRef(p, og, inc, tid, mv)
			if !got.Equal(want) || got.Key() != want.Key() {
				t.Fatalf("%s: task %d move %+v:\ngot\n%s\nwant\n%s", label, tid, mv, got, want)
			}
			n++
		}
	}
	if inc.Key() != incKey {
		t.Fatalf("%s: building candidates changed the incumbent", label)
	}
	return n
}

// spaceOf describes g's search space without profiling: tasks ordered by
// argument count, arguments by collection size.
func spaceOf(g *taskir.Graph) *profile.Space {
	sp := &profile.Space{Application: g.Name}
	for _, tk := range g.Tasks {
		sp.Tasks = append(sp.Tasks, profile.TaskInfo{
			ID: tk.ID, Name: tk.Name, Points: tk.Points,
			RuntimeSec: float64(len(tk.Args)), NumArgs: len(tk.Args),
		})
		for a, arg := range tk.Args {
			sp.Args = append(sp.Args, profile.ArgInfo{
				Task: tk.ID, Arg: a, Collection: arg.Collection,
				SizeBytes: g.Collection(arg.Collection).SizeBytes(),
			})
		}
	}
	return sp
}

// TestColocationMatchesReference checks the colocator against
// applyColocationRef for every (task, arg, k, r) move CCD enumerates, on
// three applications, from three incumbents (the default mapping, an
// all-CPU mapping and the best mapping of a short CCD search), over the
// full overlap graph and after each of CCD's four per-rotation prunes, with
// every task tunable and with half of them.
func TestColocationMatchesReference(t *testing.T) {
	const nodes = 2
	md := cluster.Shepard(nodes).Model()
	for _, name := range []string{"htr", "pennant", "circuit"} {
		app, err := apps.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := app.Build(app.Inputs[nodes][0], nodes)
		if err != nil {
			t.Fatal(err)
		}
		p := &Problem{Graph: g, Model: md, Space: spaceOf(g), Overlap: overlap.Build(g), Start: mapping.Default(g, md)}

		allCPU := mapping.Default(g, md)
		for _, tk := range g.Tasks {
			if tk.HasVariant(machine.CPU) {
				allCPU.SetProc(tk.ID, machine.CPU)
			}
		}
		allCPU.Sanitize(g, md)
		ccd := NewCCD()
		best := ccd.Search(p, newFakeEval(g, md, [2]taskir.CollectionID{0, 1}), Budget{MaxSuggestions: 300}).Best
		if best.Equal(p.Start) {
			t.Fatalf("%s: the short CCD search kept the default mapping", name)
		}
		incumbents := []struct {
			name string
			mp   *mapping.Mapping
		}{{"default", p.Start}, {"all-cpu", allCPU}, {"ccd-best", best}}

		var half []taskir.TaskID
		for _, tk := range g.Tasks {
			if tk.ID%2 == 0 {
				half = append(half, tk.ID)
			}
		}
		n := 0
		for _, tunable := range [][]taskir.TaskID{nil, half} {
			p.Tunable = tunable
			for _, inc := range incumbents {
				og := p.Overlap.Clone()
				quota := max(og.OriginalNumEdges()/(ccd.Rotations-1), 1)
				for prunes := 0; prunes < ccd.Rotations; prunes++ {
					if prunes > 0 {
						og.PruneLightest(quota)
					}
					label := name + "/" + inc.name
					if tunable != nil {
						label += "/half-tunable"
					}
					n += checkMovesAgainstRef(t, label, p, og, inc.mp)
				}
			}
		}
		t.Logf("%s: %d moves match the reference", name, n)
	}
}

// checkRandomColocation builds a small random program from seed — random
// collection intervals (so random overlap edges) and variants — with a
// random sanitized incumbent, a random number of prunes and a random
// tunable subset, and compares the colocator with the reference on every
// move (checkMovesAgainstRef).
func checkRandomColocation(t *testing.T, seed uint64, nTasks, nCols uint8) {
	t.Helper()
	rng := xrand.New(seed)
	// Without a memory both kinds address, more moves leave arguments
	// unaddressable and the fixed point has more to propagate.
	acc := map[machine.ProcKind][]machine.MemKind{
		machine.CPU: {machine.SysMem, machine.ZeroCopy},
		machine.GPU: {machine.FrameBuffer, machine.ZeroCopy},
	}
	for _, pk := range []machine.ProcKind{machine.CPU, machine.GPU} {
		if rng.Intn(2) == 0 {
			acc[pk] = acc[pk][:1]
		}
	}
	md := machine.NewModel("m", acc)
	nt, nc := 1+int(nTasks)%8, 1+int(nCols)%8
	g := taskir.NewGraph("fuzz")
	for i := 0; i < nc; i++ {
		lo := int64(rng.Intn(4)) * 25
		g.AddCollection(taskir.Collection{
			Name: "c", Space: []string{"s0", "s1"}[rng.Intn(2)],
			Lo: lo, Hi: lo + int64(1+rng.Intn(60)),
		})
	}
	for i := 0; i < nt; i++ {
		variants := map[machine.ProcKind]taskir.Variant{}
		switch rng.Intn(3) {
		case 0:
			variants[machine.CPU] = taskir.Variant{Efficiency: 1}
		case 1:
			variants[machine.GPU] = taskir.Variant{Efficiency: 1}
		default:
			variants[machine.CPU] = taskir.Variant{Efficiency: 1}
			variants[machine.GPU] = taskir.Variant{Efficiency: 1}
		}
		var args []taskir.Arg
		for a := 1 + rng.Intn(3); a > 0; a-- {
			args = append(args, taskir.Arg{Collection: taskir.CollectionID(rng.Intn(nc)), Privilege: taskir.ReadWrite, BytesPerPoint: 8})
		}
		g.AddTask(taskir.GroupTask{Name: "t", Points: 2, Variants: variants, Args: args})
	}
	inc := mapping.Default(g, md)
	for _, tk := range g.Tasks {
		inc.SetProc(tk.ID, machine.ProcKind(rng.Intn(machine.NumProcKinds)))
		for a := range tk.Args {
			inc.SetArgMemRaw(tk.ID, a, machine.MemKind(rng.Intn(machine.NumMemKinds)))
		}
		inc.SetDistribute(tk.ID, rng.Intn(2) == 0)
	}
	inc.Sanitize(g, md)

	p := &Problem{Graph: g, Model: md, Space: spaceOf(g), Overlap: overlap.Build(g), Start: inc}
	if rng.Intn(2) == 0 {
		p.Tunable = []taskir.TaskID{}
		for _, tk := range g.Tasks {
			if rng.Intn(2) == 0 {
				p.Tunable = append(p.Tunable, tk.ID)
			}
		}
	}
	og := p.Overlap.Clone()
	og.PruneLightest(rng.Intn(og.NumEdges() + 1))
	checkMovesAgainstRef(t, fmt.Sprintf("seed %d", seed), p, og, inc)
}

// TestColocationMatchesReferenceRandom runs checkRandomColocation over
// 1500 fixed seeds. On the bundled applications every worklist order
// happens to reach the same candidates; on a few of these programs (seeds
// 593, 1355 and 1465 among them) it does not, so a fixed point that pops
// in another order fails here.
func TestColocationMatchesReferenceRandom(t *testing.T) {
	for seed := uint64(1); seed <= 1500; seed++ {
		checkRandomColocation(t, seed, uint8(seed*7), uint8(seed*13))
	}
}

// FuzzApplyColocation compares the colocator with applyColocationRef on
// random programs (checkRandomColocation).
func FuzzApplyColocation(f *testing.F) {
	for _, seed := range []uint64{1, 42, 593, 1355, 1465} {
		f.Add(seed, uint8(seed*7), uint8(seed*13))
	}
	f.Fuzz(checkRandomColocation)
}
