// Package overlap builds and manipulates the collection-overlap graph C
// used by constrained coordinate-wise descent (Section 4.2 of the paper).
//
// From the program's dependence graph we induce a graph C = (V, E) on the
// collections: each collection is a vertex and (c1, c2) ∈ E iff
// c1 ∩ c2 ≠ ∅, with edge weight |c1 ∩ c2| in bytes. Collections overlap
// when they reference non-disjoint components of the same logical data
// structure, e.g. the halo regions of a partitioned stencil.
//
// After each CCD rotation a fraction of the lightest edges is pruned,
// gradually relaxing the data-movement constraint until, in the final
// rotation, all constraints on collection placement are lifted.
package overlap

import (
	"cmp"
	"slices"
	"sort"

	"automap/internal/taskir"
)

// Edge is an undirected weighted edge of the overlap graph.
type Edge struct {
	A, B   taskir.CollectionID // A < B
	Weight int64               // |A ∩ B| in bytes
}

// Graph is the collection-overlap graph C.
//
// A Graph memoizes the overlap sets it serves (OverlapSet) until its edges
// change, so a Graph that OverlapSet is called on must not be shared
// between goroutines: CCD clones one per search.
type Graph struct {
	edges []Edge // sorted by (A, B)

	// adj[c] lists the collections currently connected to c.
	adj [][]taskir.CollectionID

	// uses[c] lists the task arguments that reference collection c, in
	// (task, arg) order. It depends on the program only, so clones share
	// it.
	uses [][]TaskArg

	// sets[c] memoizes OverlapSet(c) for the current edges; nil means not
	// yet computed. rebuildAdj, the only place edges change, resets it.
	sets [][]TaskArg

	originalNumEdges int
}

// Build constructs the overlap graph of all collection pairs of g that
// overlap.
func Build(g *taskir.Graph) *Graph {
	og := &Graph{uses: make([][]TaskArg, len(g.Collections))}
	for _, task := range g.Tasks {
		for a, arg := range task.Args {
			og.uses[arg.Collection] = append(og.uses[arg.Collection], TaskArg{Task: task.ID, Arg: a, Collection: arg.Collection})
		}
	}
	for i := 0; i < len(g.Collections); i++ {
		for j := i + 1; j < len(g.Collections); j++ {
			w := g.Collections[i].OverlapBytes(g.Collections[j])
			if w > 0 {
				og.edges = append(og.edges, Edge{
					A:      g.Collections[i].ID,
					B:      g.Collections[j].ID,
					Weight: w,
				})
			}
		}
	}
	sort.Slice(og.edges, func(a, b int) bool {
		if og.edges[a].A != og.edges[b].A {
			return og.edges[a].A < og.edges[b].A
		}
		return og.edges[a].B < og.edges[b].B
	})
	og.originalNumEdges = len(og.edges)
	og.rebuildAdj()
	return og
}

func (og *Graph) rebuildAdj() {
	og.adj = make([][]taskir.CollectionID, len(og.uses))
	og.sets = make([][]TaskArg, len(og.uses))
	for _, e := range og.edges {
		og.adj[e.A] = append(og.adj[e.A], e.B)
		og.adj[e.B] = append(og.adj[e.B], e.A)
	}
}

// NumEdges returns the current number of edges.
func (og *Graph) NumEdges() int { return len(og.edges) }

// OriginalNumEdges returns the number of edges at construction time, used
// to size the per-rotation pruning quota.
func (og *Graph) OriginalNumEdges() int { return og.originalNumEdges }

// Edges returns a copy of the current edges.
func (og *Graph) Edges() []Edge { return append([]Edge(nil), og.edges...) }

// Neighbors returns the collections currently connected to c.
func (og *Graph) Neighbors(c taskir.CollectionID) []taskir.CollectionID {
	return og.adj[c]
}

// Connected reports whether c and d are currently joined by an edge.
func (og *Graph) Connected(c, d taskir.CollectionID) bool {
	for _, n := range og.adj[c] {
		if n == d {
			return true
		}
	}
	return false
}

// PruneLightest removes the n lightest edges (ties broken by (A, B) order
// for determinism) and returns the removed edges in (A, B) order. Used by
// CCD to remove original_num_edges/(num_rotations-1) edges after each
// rotation (Algorithm 1, line 8); the returned edges feed the telemetry
// layer's ConstraintDropped events.
func (og *Graph) PruneLightest(n int) []Edge {
	if n <= 0 || len(og.edges) == 0 {
		return nil
	}
	if n > len(og.edges) {
		n = len(og.edges)
	}
	byWeight := append([]Edge(nil), og.edges...)
	sort.Slice(byWeight, func(i, j int) bool {
		if byWeight[i].Weight != byWeight[j].Weight {
			return byWeight[i].Weight < byWeight[j].Weight
		}
		if byWeight[i].A != byWeight[j].A {
			return byWeight[i].A < byWeight[j].A
		}
		return byWeight[i].B < byWeight[j].B
	})
	doomed := make(map[Edge]bool, n)
	for _, e := range byWeight[:n] {
		doomed[e] = true
	}
	kept := og.edges[:0]
	var removed []Edge
	for _, e := range og.edges {
		if doomed[e] {
			removed = append(removed, e)
		} else {
			kept = append(kept, e)
		}
	}
	og.edges = kept
	og.rebuildAdj()
	return removed
}

// Clone returns a deep copy of the graph (with the same original edge
// count), so one build can seed several independent searches.
func (og *Graph) Clone() *Graph {
	cp := &Graph{
		edges:            append([]Edge(nil), og.edges...),
		uses:             og.uses,
		originalNumEdges: og.originalNumEdges,
	}
	cp.rebuildAdj()
	return cp
}

// OverlapSet returns the set of (task, collection argument) pairs whose
// collections overlap with c, including the arguments referencing c itself
// — the map O of Algorithm 1, line 5, for any pair (t, c). Pairs are
// returned in (task, arg) order. The set depends only on c and the current
// edges, so it is computed once per collection between prunes; callers
// must not modify the returned slice.
func (og *Graph) OverlapSet(c taskir.CollectionID) []TaskArg {
	if s := og.sets[c]; s != nil {
		return s
	}
	n := len(og.uses[c])
	for _, d := range og.adj[c] {
		n += len(og.uses[d])
	}
	s := make([]TaskArg, 0, n)
	s = append(s, og.uses[c]...)
	for _, d := range og.adj[c] {
		s = append(s, og.uses[d]...)
	}
	slices.SortFunc(s, func(x, y TaskArg) int {
		if x.Task != y.Task {
			return cmp.Compare(x.Task, y.Task)
		}
		return cmp.Compare(x.Arg, y.Arg)
	})
	og.sets[c] = s
	return s
}

// TaskArg identifies one collection argument of one task.
type TaskArg struct {
	Task       taskir.TaskID
	Arg        int
	Collection taskir.CollectionID
}
