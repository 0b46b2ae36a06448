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
// Because the plan is a pure function of the mapping, it is also cacheable:
// sim.Instance keys plans by mapping.Key so the repeated measurements of one
// candidate plan placement exactly once (see instance.go). A committed plan
// is immutable and may be shared by concurrent timing passes.

package sim

import (
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
)

// argPlacement records where one collection argument of one task actually
// lives on one node after the placement pass.
type argPlacement struct {
	kind  machine.MemKind
	units int // sockets or GPUs holding (splitting or mirroring) the instance
}

// PlacementPlan is the committed placement of every collection argument of
// every task under a mapping: which memory kind each instance landed in,
// over how many socket-/device-local units, and the resulting bytes per
// concrete memory. It is produced by PlanPlacement and consumed by the
// simulator's timing pass and by the static analyzer. After place() commits
// it is read-only and safe to share across concurrent simulations.
type PlacementPlan struct {
	m    *machine.Machine
	g    *taskir.Graph
	mp   *mapping.Mapping
	topo *topology

	nodes int

	// placement[taskID][argIdx][node] -> placement (meaningless entry if
	// the task has no points on that node; see placed).
	placement [][][]argPlacement
	placed    [][][]bool

	// taskNodes[taskID] is the node set the task runs on under its
	// decision, precomputed so the timing pass never re-derives it.
	taskNodes [][]int

	// residentKindBytes[colID][node][kind] tracks bytes already charged
	// for the (collection, node, kind) instance group, so growing
	// footprints only charge deltas.
	residentKindBytes []map[int]map[machine.MemKind]int64
	// memUsed[memID] is the committed bytes per concrete memory.
	memUsed []int64

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

// planPlacement is PlanPlacement against a prebuilt topology (the path
// Instance takes, amortizing the topology across every plan of a search).
func planPlacement(topo *topology, mp *mapping.Mapping) (*PlacementPlan, error) {
	p := newPlan(topo, mp)
	if err := p.place(); err != nil {
		return nil, err
	}
	return p, nil
}

func newPlan(topo *topology, mp *mapping.Mapping) *PlacementPlan {
	m, g := topo.m, topo.g
	p := &PlacementPlan{m: m, g: g, mp: mp, topo: topo, nodes: m.Nodes}

	// One backing array per table instead of one allocation per task×arg.
	totalArgs := 0
	for i := range g.Tasks {
		totalArgs += len(g.Tasks[i].Args)
	}
	placeBack := make([]argPlacement, totalArgs*p.nodes)
	placedBack := make([]bool, totalArgs*p.nodes)
	placeRows := make([][]argPlacement, totalArgs)
	placedRows := make([][]bool, totalArgs)
	p.placement = make([][][]argPlacement, len(g.Tasks))
	p.placed = make([][][]bool, len(g.Tasks))
	row := 0
	for i := range g.Tasks {
		na := len(g.Tasks[i].Args)
		p.placement[i] = placeRows[row : row+na : row+na]
		p.placed[i] = placedRows[row : row+na : row+na]
		for a := 0; a < na; a++ {
			off := (row + a) * p.nodes
			p.placement[i][a] = placeBack[off : off+p.nodes : off+p.nodes]
			p.placed[i][a] = placedBack[off : off+p.nodes : off+p.nodes]
		}
		row += na
	}

	p.taskNodes = make([][]int, len(g.Tasks))
	nodeBack := make([]int, 0, len(g.Tasks)*p.nodes)
	for i := range g.Tasks {
		t := g.Tasks[i]
		start := len(nodeBack)
		if !mp.Decision(t.ID).Distribute {
			nodeBack = append(nodeBack, 0)
		} else {
			for n := 0; n < p.nodes; n++ {
				if p.pointsOnNode(t, n) > 0 {
					nodeBack = append(nodeBack, n)
				}
			}
		}
		p.taskNodes[t.ID] = nodeBack[start:len(nodeBack):len(nodeBack)]
	}

	p.residentKindBytes = make([]map[int]map[machine.MemKind]int64, len(g.Collections))
	for c := range p.residentKindBytes {
		p.residentKindBytes[c] = make(map[int]map[machine.MemKind]int64)
	}
	p.memUsed = make([]int64, len(m.Mems))
	return p
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

// nodesUsed returns the node set a task runs on under its decision.
func (p *PlacementPlan) nodesUsed(t *taskir.GroupTask) []int {
	return p.taskNodes[t.ID]
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

// ShardBytes returns the bytes of collection c resident on one node for a
// task with pointsOnNode of totalPoints points. Partitioned collections are
// divided among points; shared (non-partitioned) collections are whole on
// every node that touches them.
func ShardBytes(c *taskir.Collection, pointsOnNode, totalPoints int) int64 {
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
	sb := ShardBytes(c, pts, t.Points)
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
// (collection, node, kind) group already holds. Returns false (without
// committing) if any target memory would exceed capacity.
func (p *PlacementPlan) tryCharge(c taskir.CollectionID, n int, mk machine.MemKind, total int64, units int) bool {
	byNode := p.residentKindBytes[c][n]
	var have int64
	if byNode != nil {
		have = byNode[mk]
	}
	if total <= have {
		return true
	}
	delta := total - have
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
	if byNode == nil {
		byNode = make(map[machine.MemKind]int64)
		p.residentKindBytes[c][n] = byNode
	}
	byNode[mk] = total
	return true
}

// place walks tasks in launch order and commits each collection argument to
// the first memory kind of its priority list with available capacity on
// every node the task uses.
func (p *PlacementPlan) place() error {
	for _, tid := range p.topo.launch {
		t := p.g.Task(tid)
		d := p.mp.Decision(tid)
		for a, arg := range t.Args {
			c := p.g.Collection(arg.Collection)
			al := p.topo.alias[arg.Collection]
			for _, n := range p.taskNodes[tid] {
				placed := false
				for ki, mk := range d.Mems[a] {
					total, units := p.footprint(t, c, mk, n)
					if p.tryCharge(al, n, mk, total, units) {
						p.placement[tid][a][n] = argPlacement{kind: mk, units: units}
						p.placed[tid][a][n] = true
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
	return nil
}

// PeakMemBytes returns the committed resident bytes per memory kind.
func (p *PlacementPlan) PeakMemBytes() map[machine.MemKind]int64 {
	out := make(map[machine.MemKind]int64, machine.NumMemKinds)
	for id, used := range p.memUsed {
		out[p.m.Mem(machine.MemID(id)).Kind] += used
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
