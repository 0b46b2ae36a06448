// Placement planning: the capacity-accounting half of the simulator.
//
// Placing a mapping's collection instances into concrete memories is a
// deterministic function of (machine, program, mapping) alone — it does not
// depend on timing, noise, or execution order beyond the launch sequence.
// Factoring it out of the timing pass gives a static feasibility oracle:
// PlanPlacement either produces the exact placement the simulator will use
// or fails with the exact *OOMError the simulator would have raised, without
// paying for the discrete-event timing pass. Package analyze consumes this
// as its memory-feasibility check, so the static analyzer can never drift
// from the simulator's out-of-memory accounting.
//
// Because the plan is a pure function of the mapping, a search need not
// keep it: sim.Instance rebuilds each candidate's plan into buffers it owns
// and recycles (see instance.go), so planning a candidate allocates nothing
// once those buffers have held the largest plan. The package-level
// PlanPlacement returns a fresh plan the caller keeps.
//
// A plan is flat: each table is one pointer-free slice, indexed through the
// topology's per-task argument offsets, that the garbage collector never
// scans. The capacity ledger that decides spills (bytes already charged per
// collection, node and memory kind) is scratch the plan does not keep; the
// plan keeps the per-memory and per-kind totals it produced.

package sim

import (
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

// argPlacement records where one collection argument of one task actually
// lives on one node after the placement pass. units is the number of
// sockets or GPUs holding (splitting or mirroring) the instance; it is at
// least 1 once placed, so the zero value means "not placed" (the task has
// no points on that node).
type argPlacement struct {
	kind  machine.MemKind
	units int32
}

// PlacementPlan is the committed placement of every collection argument of
// every task under a mapping: which memory kind each instance landed in,
// over how many socket-/device-local units, and the resulting bytes per
// concrete memory. It is produced by PlanPlacement and consumed by the
// simulator's timing pass and by the static analyzer. A plan PlanPlacement
// returns is the caller's and read-only; one an Instance returns lives in
// the Instance's recycled buffers (Instance.PlanPlacement).
//
// Its tables hold no pointers: placement is one task-major slice (see at),
// and the node sets are one list sliced by per-task offsets (see
// taskNodes).
type PlacementPlan struct {
	m    *machine.Machine
	g    *taskir.Graph
	mp   *mapping.Mapping
	topo *topology

	nodes int

	// placement[(topo.argOff[tid]+a)*nodes+n] is where argument a of task
	// tid lives on node n; the zero value if it is not placed there.
	placement []argPlacement

	// nodeList[nodeOff[tid]:nodeOff[tid+1]] is the node set task tid runs
	// on under its decision, precomputed so the timing pass never
	// re-derives it.
	nodeList []int
	nodeOff  []int32

	// memUsed[memID] is the committed bytes per concrete memory, and
	// kindBytes their sum per memory kind.
	memUsed   []int64
	kindBytes [machine.NumMemKinds]int64

	// Spills counts collection instances that fell back to a non-primary
	// memory kind because the primary was full.
	Spills int
}

// PlanPlacement runs the placement pass of the simulator: walk tasks in
// launch order and commit each collection argument to the first memory kind
// of its priority list with available capacity on every node the task uses.
// It returns the plan, or an *OOMError if the mapping does not fit — the
// same error Simulate would return, at a fraction of the cost. The mapping
// must already be valid for (g, m.Model()).
func PlanPlacement(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping) (*PlacementPlan, error) {
	return planPlacement(newTopology(m, g), mp)
}

// planPlacement is PlanPlacement against a prebuilt topology: a fresh plan
// with a fresh ledger.
func planPlacement(topo *topology, mp *mapping.Mapping) (*PlacementPlan, error) {
	p := new(PlacementPlan)
	if _, err := p.build(topo, mp, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// build plans mp into p, reusing the arrays of p's tables and of ledger
// (the capacity-ledger scratch, which it returns resized) where they are
// large enough, and clearing whatever an earlier plan, failed or not, left
// in them. On an *OOMError p holds a partial plan that must not be read.
func (p *PlacementPlan) build(topo *topology, mp *mapping.Mapping, ledger []int64) ([]int64, error) {
	m, g := topo.m, topo.g
	*p = PlacementPlan{
		m: m, g: g, mp: mp, topo: topo, nodes: m.Nodes,
		placement: cleared(p.placement, topo.argOff[len(g.Tasks)]*m.Nodes),
		nodeList:  p.nodeList[:0],
		nodeOff:   cleared(p.nodeOff, len(g.Tasks)+1),
		memUsed:   cleared(p.memUsed, len(m.Mems)),
	}
	if p.nodeList == nil {
		p.nodeList = make([]int, 0, len(g.Tasks)*p.nodes)
	}
	for i := range g.Tasks {
		t := g.Tasks[i]
		if !mp.Decision(t.ID).Distribute {
			p.nodeList = append(p.nodeList, 0)
		} else {
			for n := 0; n < p.nodes; n++ {
				if p.pointsOnNode(t, n) > 0 {
					p.nodeList = append(p.nodeList, n)
				}
			}
		}
		p.nodeOff[i+1] = int32(len(p.nodeList))
	}
	ledger = cleared(ledger, len(g.Collections)*p.nodes*machine.NumMemKinds)
	return ledger, p.place(ledger)
}

// cleared returns s resliced to n zero elements, reusing its array when it
// holds n.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// at returns where argument a of task tid lives on node n (units 0 if it
// is not placed there).
func (p *PlacementPlan) at(tid taskir.TaskID, a, n int) argPlacement {
	return p.placement[(p.topo.argOff[tid]+a)*p.nodes+n]
}

// argRow returns task tid's placements, argument-major then node.
func (p *PlacementPlan) argRow(tid taskir.TaskID) []argPlacement {
	return p.placement[p.topo.argOff[tid]*p.nodes : p.topo.argOff[tid+1]*p.nodes]
}

// taskNodes returns the node set task tid runs on under its decision.
func (p *PlacementPlan) taskNodes(tid taskir.TaskID) []int {
	return p.nodeList[p.nodeOff[tid]:p.nodeOff[tid+1]]
}

// launchOrder returns the per-iteration launch sequence of g.
func launchOrder(g *taskir.Graph) []taskir.TaskID {
	if len(g.Launch) > 0 {
		return g.Launch
	}
	order := make([]taskir.TaskID, len(g.Tasks))
	for i := range g.Tasks {
		order[i] = g.Tasks[i].ID
	}
	return order
}

// pointsOnNode returns the number of points of t placed on node n: a
// blocked distribution across all nodes if distributed, otherwise all on
// node 0.
func (p *PlacementPlan) pointsOnNode(t *taskir.GroupTask, n int) int {
	if !p.mp.Decision(t.ID).Distribute {
		if n == 0 {
			return t.Points
		}
		return 0
	}
	base := t.Points / p.nodes
	rem := t.Points % p.nodes
	if n < rem {
		return base + 1
	}
	return base
}

// procsOnNode returns how many processors of kind k node n has.
func (p *PlacementPlan) procsOnNode(k machine.ProcKind, n int) int {
	return p.topo.procCount[n][k]
}

// unitsSpanned returns how many socket-/device-local units of memory kind
// mk an instance accessed by `points` points of kind pk on node n spans.
// Zero-Copy is one node-wide allocation; System memory has one allocation
// per socket; Frame-Buffer one per GPU.
func (p *PlacementPlan) unitsSpanned(pk machine.ProcKind, mk machine.MemKind, n, points int) int {
	switch mk {
	case machine.ZeroCopy:
		return 1
	case machine.SysMem:
		if pk != machine.CPU {
			return 1
		}
		sockets := len(p.topo.mems[n][machine.SysMem])
		if sockets == 0 {
			return 1
		}
		perSocket := p.procsOnNode(machine.CPU, n) / sockets
		if perSocket == 0 {
			return 1
		}
		units := (points + perSocket - 1) / perSocket
		if units > sockets {
			units = sockets
		}
		if units < 1 {
			units = 1
		}
		return units
	case machine.FrameBuffer:
		gpus := p.procsOnNode(machine.GPU, n)
		if gpus == 0 {
			return 1
		}
		units := points
		if units > gpus {
			units = gpus
		}
		if units < 1 {
			units = 1
		}
		return units
	default:
		return 1
	}
}

// shardBytes returns the bytes of collection c resident on one node for a
// task with pointsOnNode of totalPoints points. Partitioned collections are
// divided among points; shared (non-partitioned) collections are whole on
// every node that touches them.
func shardBytes(c *taskir.Collection, pointsOnNode, totalPoints int) int64 {
	if !c.Partitioned || totalPoints == 0 {
		return c.SizeBytes()
	}
	return c.SizeBytes() * int64(pointsOnNode) / int64(totalPoints)
}

// footprint returns the total bytes instance(s) of collection c occupy in
// kind mk on node n for the given task, together with the units count.
func (p *PlacementPlan) footprint(t *taskir.GroupTask, c *taskir.Collection, mk machine.MemKind, n int) (int64, int) {
	pts := p.pointsOnNode(t, n)
	d := p.mp.Decision(t.ID)
	units := p.unitsSpanned(d.Proc, mk, n, pts)
	sb := shardBytes(c, pts, t.Points)
	if !c.Partitioned && units > 1 {
		// Shared collections are replicated per socket/device.
		return sb * int64(units), units
	}
	return sb, units
}

// kindMemsOnNode returns the concrete memories of kind mk on node n in
// deterministic order.
func (p *PlacementPlan) kindMemsOnNode(mk machine.MemKind, n int) []machine.MemID {
	return p.topo.mems[n][mk]
}

// tryCharge attempts to charge `total` bytes for (c, n, mk) spread over
// `units` concrete memories, charging only the growth over what this
// (collection, node, kind) group already holds. ledger[(c*nodes+n)*
// NumMemKinds+mk] is that holding: place's scratch, not kept by the plan.
// Returns false (without committing) if any target memory would exceed
// capacity.
func (p *PlacementPlan) tryCharge(ledger []int64, c taskir.CollectionID, n int, mk machine.MemKind, total int64, units int) bool {
	have := &ledger[(int(c)*p.nodes+n)*machine.NumMemKinds+int(mk)]
	if total <= *have {
		return true
	}
	delta := total - *have
	mems := p.kindMemsOnNode(mk, n)
	if len(mems) == 0 {
		return false
	}
	if units > len(mems) {
		units = len(mems)
	}
	if units < 1 {
		units = 1
	}
	per := delta / int64(units)
	if per*int64(units) < delta {
		per++
	}
	for i := 0; i < units; i++ {
		mem := p.m.Mem(mems[i])
		if p.memUsed[mems[i]]+per > mem.Capacity {
			return false
		}
	}
	for i := 0; i < units; i++ {
		p.memUsed[mems[i]] += per
	}
	*have = total
	return true
}

// place walks tasks in launch order and commits each collection argument to
// the first memory kind of its priority list with available capacity on
// every node the task uses, charging growth against ledger (zeroed, one
// entry per (collection alias, node, memory kind)). On success it sums the
// committed bytes per kind.
func (p *PlacementPlan) place(ledger []int64) error {
	for _, tid := range p.topo.launch {
		t := p.g.Task(tid)
		d := p.mp.Decision(tid)
		row := p.argRow(tid)
		for a, arg := range t.Args {
			c := p.g.Collection(arg.Collection)
			al := p.topo.alias[arg.Collection]
			for _, n := range p.taskNodes(tid) {
				placed := false
				for ki, mk := range d.Mems[a] {
					total, units := p.footprint(t, c, mk, n)
					if p.tryCharge(ledger, al, n, mk, total, units) {
						row[a*p.nodes+n] = argPlacement{kind: mk, units: int32(units)}
						if ki > 0 {
							p.Spills++
						}
						placed = true
						break
					}
				}
				if !placed {
					return &OOMError{
						Task:       t.Name,
						Collection: c.Name,
						Node:       n,
						Tried:      append([]machine.MemKind(nil), d.Mems[a]...),
					}
				}
			}
		}
	}
	for id, used := range p.memUsed {
		p.kindBytes[p.m.Mems[id].Kind] += used
	}
	return nil
}

// PeakMemBytes returns the committed resident bytes per memory kind, with
// an entry for every kind the machine has. Each call returns a fresh map.
func (p *PlacementPlan) PeakMemBytes() map[machine.MemKind]int64 {
	out := make(map[machine.MemKind]int64, machine.NumMemKinds)
	for k, b := range p.kindBytes {
		if p.topo.hasMemKind[k] {
			out[machine.MemKind(k)] = b
		}
	}
	return out
}

// MemUsage is the committed placement load of one concrete memory.
type MemUsage struct {
	ID        machine.MemID
	Kind      machine.MemKind
	Node      int
	UsedBytes int64
	Capacity  int64
}

// MemUsage returns the per-concrete-memory committed bytes of the plan, in
// memory-ID order. The static analyzer uses it to warn about memories near
// capacity.
func (p *PlacementPlan) MemUsage() []MemUsage {
	out := make([]MemUsage, 0, len(p.memUsed))
	for id, used := range p.memUsed {
		mem := p.m.Mem(machine.MemID(id))
		out = append(out, MemUsage{
			ID: mem.ID, Kind: mem.Kind, Node: mem.Node,
			UsedBytes: used, Capacity: mem.Capacity,
		})
	}
	return out
}
