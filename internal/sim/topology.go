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

	// argDeps[task] caches, per argument in order, the alias and
	// privilege bits the readiness/commit passes consult; the schedule
	// fold (schedule.go) replays dependences from it without touching
	// the graph.
	argDeps [][]argDep
}

// argDep is one task argument's dependence signature: the collection
// alias it resolves to, its privilege bits, and whether the collection is
// partitioned.
type argDep struct {
	alias  taskir.CollectionID
	reads  bool
	writes bool
	part   bool
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
				reads:  arg.Privilege.Reads(),
				writes: arg.Privilege.Writes(),
				part:   g.Collections[arg.Collection].Partitioned,
			}
		}
		t.argDeps[task.ID] = deps
	}
	return t
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
