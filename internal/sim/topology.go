// Machine/program topology tables: everything about (machine, program)
// that the placement and timing passes look up per launch but that never
// changes between runs — alias resolution, per-node processor and memory
// inventories, representative processors, and inter-kind copy channel
// parameters. Precomputing them once per (machine, program) pair removes
// the mutex-guarded graph lookups and linear machine scans from the
// simulator's innermost loops (they accounted for roughly a third of
// search CPU time before this existed).

package sim

import (
	"math"
	"math/bits"

	"automap/internal/machine"
	"automap/internal/taskir"
)

// bwLat is one precomputed copy-channel lookup: bandwidth and latency
// between two memory kinds on one node.
type bwLat struct {
	bw  float64
	lat float64
}

// topology caches the (machine, program)-derived tables shared by every
// simulation of that pair. It is immutable after build and therefore safe
// to share across concurrent runs.
type topology struct {
	m     *machine.Machine
	g     *taskir.Graph
	nodes int

	// alias[c] is g.AliasID(c), precomputed so the hot path never takes
	// the graph's lazy-build mutex.
	alias []taskir.CollectionID
	// launch is the per-iteration launch order.
	launch []taskir.TaskID
	// procCount[node][kind] is the number of processors of the kind on
	// the node; mems[node][kind] the memories of the kind on the node in
	// deterministic (ID) order.
	procCount [][]int
	mems      [][][]machine.MemID
	// procRep[kind] is a representative processor of the kind for
	// calibration constants (all processors of a kind are identical in
	// the modeled clusters); nil if the machine has none.
	procRep []*machine.Processor
	// chans[node][a][b] is the copy bandwidth/latency between memory
	// kinds a and b on the node (the chanBW computation, memoized).
	chans [][][]bwLat
	// maxArgs is the largest argument count of any task, sizing the
	// timing pass's per-launch scratch.
	maxArgs int
	// argOff[task] is the task-major index of the task's first argument
	// among all tasks' arguments; argOff[len(g.Tasks)] is the total
	// argument count. Placement plans index their flat tables by it.
	argOff []int
	// hasMemKind[kind] reports whether the machine has a memory of the
	// kind: the kinds a plan's PeakMemBytes reports.
	hasMemKind [machine.NumMemKinds]bool

	// argDeps[task] caches, per argument in order, the dependence
	// signature the launch DAG is built from and delta classification
	// consults.
	argDeps [][]argDep

	// The reduced launch DAG the timing fold (schedule.go) computes each
	// launch's ready time from. Row r's predecessors are the back-offsets
	// preds[predOff[r]:predOff[r+1]], each the distance li − j from a
	// launch li to an earlier launch j it must wait for. Rows [0,
	// perIter) are the positions of iteration 0, rows [perIter,
	// 2*perIter) the positions of every later iteration; no offset
	// exceeds perIter (buildLaunchDAG).
	predOff []int32
	preds   []int32
}

// argDep is one task argument's dependence signature: the collection
// alias it resolves to and whether the argument writes it. Every privilege
// reads or writes, so every argument accesses its alias.
type argDep struct {
	alias  taskir.CollectionID
	writes bool
}

// newTopology builds the lookup tables for (m, g).
func newTopology(m *machine.Machine, g *taskir.Graph) *topology {
	t := &topology{m: m, g: g, nodes: m.Nodes}

	t.alias = make([]taskir.CollectionID, len(g.Collections))
	for c := range g.Collections {
		t.alias[c] = g.AliasID(taskir.CollectionID(c))
	}
	t.launch = launchOrder(g)

	t.procCount = make([][]int, t.nodes)
	t.mems = make([][][]machine.MemID, t.nodes)
	for n := 0; n < t.nodes; n++ {
		t.procCount[n] = make([]int, machine.NumProcKinds)
		t.mems[n] = make([][]machine.MemID, machine.NumMemKinds)
		for k := 0; k < machine.NumProcKinds; k++ {
			t.procCount[n][k] = len(m.ProcsOfKindOnNode(machine.ProcKind(k), n))
		}
		for k := 0; k < machine.NumMemKinds; k++ {
			t.mems[n][k] = m.MemsOfKindOnNode(machine.MemKind(k), n)
		}
	}

	t.procRep = make([]*machine.Processor, machine.NumProcKinds)
	for i := range m.Procs {
		k := m.Procs[i].Kind
		if t.procRep[k] == nil {
			t.procRep[k] = &m.Procs[i]
		}
	}

	t.chans = make([][][]bwLat, t.nodes)
	for n := 0; n < t.nodes; n++ {
		t.chans[n] = make([][]bwLat, machine.NumMemKinds)
		for a := 0; a < machine.NumMemKinds; a++ {
			t.chans[n][a] = make([]bwLat, machine.NumMemKinds)
			for b := 0; b < machine.NumMemKinds; b++ {
				bw, lat := t.computeChan(machine.MemKind(a), machine.MemKind(b), n)
				t.chans[n][a][b] = bwLat{bw: bw, lat: lat}
			}
		}
	}

	t.argOff = make([]int, len(g.Tasks)+1)
	for i, task := range g.Tasks {
		if len(task.Args) > t.maxArgs {
			t.maxArgs = len(task.Args)
		}
		t.argOff[i+1] = t.argOff[i] + len(task.Args)
	}
	for i := range m.Mems {
		t.hasMemKind[m.Mems[i].Kind] = true
	}

	t.argDeps = make([][]argDep, len(g.Tasks))
	for i := range g.Tasks {
		task := g.Tasks[i]
		deps := make([]argDep, len(task.Args))
		for a := range task.Args {
			arg := &task.Args[a]
			deps[a] = argDep{
				alias:  t.alias[arg.Collection],
				writes: arg.Privilege.Writes(),
			}
		}
		t.argDeps[task.ID] = deps
	}
	t.predOff, t.preds = buildLaunchDAG(t.launch, t.argDeps)
	return t
}

// conflicts reports whether two launches of tasks with argument
// signatures a and b must run in launch order: some alias is accessed by
// both and written by at least one.
func conflicts(a, b []argDep) bool {
	for _, x := range a {
		for _, y := range b {
			if x.alias == y.alias && (x.writes || y.writes) {
				return true
			}
		}
	}
	return false
}

// buildLaunchDAG builds the transitively reduced predecessor lists of the
// launch order (topology.predOff and preds).
//
// A launch is ready once every earlier launch it conflicts with has
// finished, and a launch finishes no earlier than it is ready, so finish
// times never decrease along a chain of conflicts: a conflicting launch
// that is an ancestor of another conflicting launch cannot be the latest
// one, and dropping it leaves the maximum unchanged. The lists keep only
// the conflicting launches that are no other one's ancestor.
//
// Conflicts depend only on the two launches' positions and their order.
// A conflicting launch more than perIter back is therefore an ancestor of
// its own next instance, which also conflicts, or (when it only reads
// what the launch writes) of the launch's own previous instance, which
// writes the same alias. So every reduced predecessor lies at most
// perIter back, and the lists of iteration 1 serve every later iteration:
// the lists are computed over a two-iteration unroll with one ancestor
// bitset per launch.
func buildLaunchDAG(launch []taskir.TaskID, deps [][]argDep) (off, preds []int32) {
	p := len(launch)
	u := 2 * p
	w := (u + 63) / 64
	cf := make([]bool, p*p) // cf[x*p+y]: positions x and y conflict
	for x := range launch {
		for y := range launch {
			cf[x*p+y] = conflicts(deps[launch[x]], deps[launch[y]])
		}
	}
	// anc[i*w:] is the ancestor set of launch i and red[i*w:] its
	// reduced predecessor set; covered is per-launch scratch: the
	// ancestors of its direct conflicts.
	words := make([]uint64, 2*u*w+w)
	anc, red, covered := words[:u*w], words[u*w:2*u*w], words[2*u*w:]
	n := 0
	for i := 0; i < u; i++ {
		row, rr := anc[i*w:(i+1)*w], red[i*w:(i+1)*w]
		clear(covered)
		for j := 0; j < i; j++ {
			if !cf[(j%p)*p+i%p] {
				continue
			}
			rr[j/64] |= 1 << (j % 64)
			for k, a := range anc[j*w : (j+1)*w] {
				covered[k] |= a
			}
		}
		for k := range row {
			row[k] = rr[k] | covered[k]
			rr[k] &^= covered[k]
			n += bits.OnesCount64(rr[k])
		}
	}
	off = make([]int32, u+1)
	preds = make([]int32, 0, n)
	for i := 0; i < u; i++ {
		// Nearest predecessor first.
		for j := i - 1; j >= 0; j-- {
			if red[i*w+j/64]&(1<<(j%64)) != 0 {
				preds = append(preds, int32(i-j))
			}
		}
		off[i+1] = int32(len(preds))
	}
	return off, preds
}

// computeChan resolves the copy bandwidth and latency between memory kinds
// a and b on node n, looked up from the machine's channels between
// representative concrete memories (routing through System memory when no
// direct channel exists).
func (t *topology) computeChan(a, b machine.MemKind, n int) (float64, float64) {
	am := t.mems[n][a]
	bm := t.mems[n][b]
	if len(am) == 0 || len(bm) == 0 {
		return 0, 0
	}
	src, dst := am[0], bm[0]
	if src == dst {
		if len(am) > 1 {
			dst = am[1] // same-kind copy, e.g. socket-to-socket System
		} else {
			// Same single memory: treat as a cheap in-place move.
			return math.Inf(1), 0
		}
	}
	if ch, ok := t.m.ChannelBetween(src, dst); ok {
		return ch.BandwidthBps, ch.LatencySec
	}
	// No direct channel: route through System memory.
	sys := t.mems[n][machine.SysMem]
	if len(sys) == 0 {
		return 0, 0
	}
	bw := math.Inf(1)
	lat := 0.0
	if ch, ok := t.m.ChannelBetween(src, sys[0]); ok {
		if ch.BandwidthBps < bw {
			bw = ch.BandwidthBps
		}
		lat += ch.LatencySec
	}
	if ch, ok := t.m.ChannelBetween(sys[0], dst); ok {
		if ch.BandwidthBps < bw {
			bw = ch.BandwidthBps
		}
		lat += ch.LatencySec
	}
	if math.IsInf(bw, 1) {
		return 0, 0
	}
	return bw, lat
}
