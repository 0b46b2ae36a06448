// Capacity lower-bound prover: a placement-free out-of-memory proof.
//
// The feasibility pass (AM0002) answers the exact question — it replays the
// simulator's greedy placement — but pays for the full placement walk on
// every candidate. This pass proves a *lower bound* instead: it sums the
// irreducible per-node footprints of the collections that are co-resident
// under the mapping (placement never evicts, so every placed instance group
// stays live for the whole run) and compares them against the combined
// capacity of the only memory kinds those collections are allowed to land
// in. When the bound exceeds the capacity of some kind subset, *no*
// placement order can succeed, so the greedy placement — and therefore
// sim.Simulate — is guaranteed to fail with an OOMError.
//
// The proof is a Hall-style counting argument per node. For every aliased
// collection c that the mapping materializes on node n, let
//
//	lb(c, n)  = the largest shard any single task forces resident
//	            (kind-independent: replication across sockets/devices and
//	            priority-list choice only ever add bytes), and
//	U(c, n)   = the union of the memory kinds in the priority lists of the
//	            arguments referencing c from tasks running on n.
//
// For any kind subset S, every collection with U(c,n) ⊆ S must keep its
// lb(c,n) bytes inside memories of kinds in S on node n. If
//
//	Σ { lb(c,n) : U(c,n) ⊆ S }  >  Σ { capacity(mem) : kind(mem) ∈ S }
//
// the mapping provably cannot fit. NumMemKinds is tiny, so all 2^kinds
// subsets are checked exhaustively.
//
// Soundness (a capacity proof implies PlanPlacement fails) is enforced by
// TestCapacityImpliesPlacementFailure and the analyze fuzz cross-check; the
// implication must never be weakened: an unsound proof would report AM0011
// errors, and an Infeasible verdict, on mappings that execute.

package analyze

import (
	"fmt"
	"strings"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/taskir"
)

// kindSet is a bitmask over machine.MemKind (NumMemKinds is small).
type kindSet uint32

func (s kindSet) has(k machine.MemKind) bool { return s&(1<<uint(k)) != 0 }

func (s kindSet) subsetOf(t kindSet) bool { return s&^t == 0 }

func (s kindSet) String() string {
	var parts []string
	for k := machine.MemKind(0); int(k) < machine.NumMemKinds; k++ {
		if s.has(k) {
			parts = append(parts, k.String())
		}
	}
	return strings.Join(parts, "+")
}

// colDemand is the irreducible demand of one aliased collection on one node.
type colDemand struct {
	col   taskir.CollectionID // canonical (alias) representative
	bytes int64               // lb(c, n): largest single-task shard
	kinds kindSet             // U(c, n): union of allowed kinds
}

// capacityProof is one successful lower-bound proof: the collections
// restricted to `kinds` on `node` need more bytes than those memories hold.
type capacityProof struct {
	node        int
	kinds       kindSet
	demandBytes int64
	capBytes    int64
	// largest is the biggest contributor, for the diagnostic location.
	largest taskir.CollectionID
}

// pointsOnNode mirrors the simulator's blocked point distribution: a
// non-distributed task runs entirely on node 0; a distributed one spreads
// its points across all nodes with the remainder on the low nodes. Any
// drift from sim's arithmetic is caught by the capacity/placement
// cross-check tests.
func pointsOnNode(t *taskir.GroupTask, distribute bool, node, nodes int) int {
	if !distribute {
		if node == 0 {
			return t.Points
		}
		return 0
	}
	base := t.Points / nodes
	rem := t.Points % nodes
	if node < rem {
		return base + 1
	}
	return base
}

// capacityStructurallySound reports whether mp is shaped well enough to
// walk decisions without risking out-of-range indexing: one decision per
// task, one non-empty priority list per argument. It deliberately does NOT
// run the full legality pass — the prover is meant to be cheap enough to
// run before any other analysis.
func capacityStructurallySound(g *taskir.Graph, mp *mapping.Mapping) bool {
	if mp.NumTasks() != len(g.Tasks) {
		return false
	}
	for _, t := range g.Tasks {
		d := mp.Decision(t.ID)
		if len(d.Mems) != len(t.Args) {
			return false
		}
		for _, ms := range d.Mems {
			if len(ms) == 0 {
				return false
			}
		}
	}
	return true
}

// proveCapacity runs the lower-bound argument and returns every violated
// subset (at most one proof per (node, kind-subset)). An empty result means
// "no proof", not "feasible".
func proveCapacity(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping) []capacityProof {
	if !capacityStructurallySound(g, mp) {
		return nil
	}
	nodes := m.Nodes
	// demands[n] maps alias -> accumulated demand on node n.
	demands := make([]map[taskir.CollectionID]*colDemand, nodes)
	for _, t := range g.Tasks {
		d := mp.Decision(t.ID)
		for a, arg := range t.Args {
			c := g.Collection(arg.Collection)
			al := g.AliasID(arg.Collection)
			var kinds kindSet
			for _, mk := range d.Mems[a] {
				kinds |= 1 << uint(mk)
			}
			for n := 0; n < nodes; n++ {
				pts := pointsOnNode(t, d.Distribute, n, nodes)
				if pts == 0 {
					continue
				}
				lb := sim.ShardBytes(c, pts, t.Points)
				if lb <= 0 {
					continue
				}
				if demands[n] == nil {
					demands[n] = make(map[taskir.CollectionID]*colDemand)
				}
				cd := demands[n][al]
				if cd == nil {
					cd = &colDemand{col: al}
					demands[n][al] = cd
				}
				cd.kinds |= kinds
				if lb > cd.bytes {
					cd.bytes = lb
				}
			}
		}
	}

	// Per-node capacity by kind.
	capByKind := make([][]int64, nodes)
	for n := 0; n < nodes; n++ {
		capByKind[n] = make([]int64, machine.NumMemKinds)
	}
	for i := range m.Mems {
		mem := &m.Mems[i]
		if mem.Node >= 0 && mem.Node < nodes {
			capByKind[mem.Node][mem.Kind] += mem.Capacity
		}
	}

	var proofs []capacityProof
	for n := 0; n < nodes; n++ {
		if len(demands[n]) == 0 {
			continue
		}
		// Deterministic iteration: collect per-alias demands in ID order.
		ordered := make([]*colDemand, 0, len(demands[n]))
		for c := taskir.CollectionID(0); int(c) < len(g.Collections); c++ {
			if cd, ok := demands[n][c]; ok {
				ordered = append(ordered, cd)
			}
		}
		for s := kindSet(1); s < 1<<uint(machine.NumMemKinds); s++ {
			var demand, capacity int64
			var largest taskir.CollectionID = -1
			var largestBytes int64
			for _, cd := range ordered {
				if !cd.kinds.subsetOf(s) {
					continue
				}
				demand += cd.bytes
				if cd.bytes > largestBytes {
					largestBytes, largest = cd.bytes, cd.col
				}
			}
			if demand == 0 {
				continue
			}
			for k := machine.MemKind(0); int(k) < machine.NumMemKinds; k++ {
				if s.has(k) {
					capacity += capByKind[n][k]
				}
			}
			if demand > capacity {
				proofs = append(proofs, capacityProof{
					node: n, kinds: s, demandBytes: demand, capBytes: capacity, largest: largest,
				})
			}
		}
	}
	return proofs
}

// capacityPass reports AM0011 for every violated kind subset. It runs
// before the feasibility pass in DefaultPasses: its diagnostics carry the
// counting argument (which kinds, how many bytes over), which the exact
// placement replay cannot articulate — placement only knows the first
// argument that failed to fit.
type capacityPass struct{}

func (capacityPass) Name() string { return "capacity" }

func (capacityPass) Run(ctx *Context) []Diagnostic {
	g, m, mp := ctx.Graph, ctx.Machine, ctx.Mapping
	if m == nil || mp == nil {
		return nil
	}
	// Match the feasibility pass's precondition so the two passes agree on
	// which candidates they speak about: structurally invalid mappings are
	// the legality pass's findings, not ours.
	if len(mp.Violations(g, ctx.Model)) > 0 {
		return nil
	}
	var out []Diagnostic
	for _, p := range proveCapacity(m, g, mp) {
		d := noLoc(CodeCapacityLB, Error, "capacity")
		d.Node = p.node
		d.Collection = p.largest
		d.Msg = fmt.Sprintf(
			"provable out-of-memory: collections confined to %s need at least %d bytes on node %d but those memories hold %d",
			p.kinds, p.demandBytes, p.node, p.capBytes)
		out = append(out, d)
	}
	return out
}
