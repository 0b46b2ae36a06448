// Package taskir defines the intermediate representation of a task-based
// program used throughout AutoMap: data collections, (group) tasks with
// collection arguments, and the acyclic dependence graph induced by data
// flow (Section 2 of the paper).
//
// Programs are iterative: the same sequence of group-task launches repeats
// every iteration (the paper targets "the large class of iterative
// programs", Section 6). Dependencies are computed per collection from task
// launch order and argument privileges, exactly as a Legion-style runtime
// would: each reader depends on the most recent writer of each collection
// it reads, and each writer depends on all accessors since the previous
// writer.
package taskir

import (
	"fmt"
	"sort"
	"sync"

	"automap/internal/machine"
)

// CollectionID names a data collection within a program.
type CollectionID int

// TaskID names a group task within a program.
type TaskID int

// Privilege describes how a task accesses a collection argument.
type Privilege uint8

// Privileges.
const (
	// ReadOnly arguments are consumed but not modified.
	ReadOnly Privilege = iota
	// WriteOnly arguments are produced without reading prior contents.
	WriteOnly
	// ReadWrite arguments are both consumed and modified in place.
	ReadWrite
)

// String returns the Legion-style privilege name.
func (p Privilege) String() string {
	switch p {
	case ReadOnly:
		return "RO"
	case WriteOnly:
		return "WO"
	case ReadWrite:
		return "RW"
	default:
		return fmt.Sprintf("Privilege(%d)", uint8(p))
	}
}

// Reads reports whether the privilege includes read access.
func (p Privilege) Reads() bool { return p == ReadOnly || p == ReadWrite }

// Writes reports whether the privilege includes write access.
func (p Privilege) Writes() bool { return p == WriteOnly || p == ReadWrite }

// Collection is a named data collection (a logical region in Legion terms).
// Collections carry an interval on a named logical index space; two
// collections overlap iff they name the same space and their intervals
// intersect. This models, e.g., halo regions of a partitioned stencil that
// reference data used by multiple tasks (Section 4.2).
type Collection struct {
	ID   CollectionID
	Name string

	// Space is the logical index space this collection views.
	Space string
	// Lo and Hi delimit the half-open byte interval [Lo, Hi) of Space
	// referenced by this collection. SizeBytes == Hi - Lo.
	Lo, Hi int64

	// Partitioned collections are divided among the points of group
	// tasks that use them (each point touches size/points bytes);
	// non-partitioned (replicated) collections are accessed whole by
	// every point.
	Partitioned bool
}

// SizeBytes returns the collection footprint in bytes.
func (c *Collection) SizeBytes() int64 { return c.Hi - c.Lo }

// OverlapBytes returns |c ∩ d| in bytes: the weight of the edge between the
// two collections in the overlap graph C, or 0 if they do not overlap.
func (c *Collection) OverlapBytes(d *Collection) int64 {
	if c.Space != d.Space {
		return 0
	}
	lo := c.Lo
	if d.Lo > lo {
		lo = d.Lo
	}
	hi := c.Hi
	if d.Hi < hi {
		hi = d.Hi
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// Variant describes the implementation of a task for one processor kind.
type Variant struct {
	Kind machine.ProcKind

	// WorkPerPoint is the abstract work (FLOPs) performed by one point
	// of the group task, per iteration.
	WorkPerPoint float64
	// Efficiency scales the processor's nominal throughput for this
	// task: 1.0 means the task achieves the processor's sustained rate;
	// smaller values model tasks that vectorize or parallelize poorly on
	// that kind. Must be in (0, 1].
	Efficiency float64
	// TrafficFactor scales the task's argument traffic on this
	// processor kind (e.g. a GPU stencil re-reads neighbor cells that a
	// tiled CPU implementation holds in registers). 0 means 1.
	TrafficFactor float64
}

// Arg is one collection argument of a group task.
type Arg struct {
	Collection CollectionID
	Privilege  Privilege

	// BytesPerPoint is the number of bytes of the collection actually
	// streamed by one point per iteration (several passes over a
	// partitioned sub-block can make this exceed size/points).
	BytesPerPoint int64
}

// GroupTask is a set of Points independent instances of the same task
// launched in a single operation (an index launch). Individual tasks are
// groups of size one (Section 3.1).
type GroupTask struct {
	ID   TaskID
	Name string

	// Points is the number of task instances in the group.
	Points int

	// Args are the collection arguments, in declaration order.
	Args []Arg

	// Variants holds the available implementations keyed by processor
	// kind. To run on a kind the task must have a variant for it.
	Variants map[machine.ProcKind]Variant
}

// HasVariant reports whether the task can run on processor kind k.
func (t *GroupTask) HasVariant(k machine.ProcKind) bool {
	_, ok := t.Variants[k]
	return ok
}

// VariantKinds returns the processor kinds this task has variants for, in
// deterministic order.
func (t *GroupTask) VariantKinds() []machine.ProcKind {
	kinds := make([]machine.ProcKind, 0, len(t.Variants))
	for k := range t.Variants {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	return kinds
}

// Dep is a dependence edge: task To must observe the effects of task From
// on collection Collection before executing.
type Dep struct {
	From, To   TaskID
	Collection CollectionID
}

// Graph is the program representation: collections, group tasks in launch
// order, and the number of iterations of the launch sequence.
type Graph struct {
	Name string

	Collections []*Collection
	Tasks       []*GroupTask

	// Launch is the per-iteration launch order as indices into Tasks.
	// If empty, tasks launch in Tasks order.
	Launch []TaskID

	// Iterations is the number of times the launch sequence repeats.
	Iterations int

	// SerialOverheadSec is the runtime system's serial per-iteration
	// cost (dependence analysis, scheduling) that no mapping can avoid;
	// it is added once per iteration to the makespan.
	SerialOverheadSec float64

	// mu guards the lazily built caches below, so a fully constructed
	// Graph can be simulated concurrently (the driver measures repeated
	// runs in parallel). Construction itself is not concurrency-safe.
	mu       sync.Mutex
	deps     []Dep
	depsOK   bool
	adjCache map[TaskID][]Dep
	aliasOf  []CollectionID
}

// NewGraph returns an empty program graph.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, Iterations: 1}
}

// AddCollection appends a collection and returns it. The ID is assigned.
func (g *Graph) AddCollection(c Collection) *Collection {
	c.ID = CollectionID(len(g.Collections))
	if c.Hi < c.Lo {
		panic(fmt.Sprintf("taskir: collection %q has negative size", c.Name))
	}
	cp := c
	g.Collections = append(g.Collections, &cp)
	g.depsOK = false
	return &cp
}

// AddTask appends a group task and returns it. The ID is assigned.
func (g *Graph) AddTask(t GroupTask) *GroupTask {
	t.ID = TaskID(len(g.Tasks))
	if t.Points <= 0 {
		t.Points = 1
	}
	if t.Variants == nil {
		t.Variants = make(map[machine.ProcKind]Variant)
	}
	cp := t
	g.Tasks = append(g.Tasks, &cp)
	g.depsOK = false
	return &cp
}

// Task returns the task with the given ID.
func (g *Graph) Task(id TaskID) *GroupTask { return g.Tasks[id] }

// Collection returns the collection with the given ID.
func (g *Graph) Collection(id CollectionID) *Collection { return g.Collections[id] }

// NumCollectionArgs returns the total number of collection arguments across
// all tasks (the "Collection Arguments" column of Figure 5).
func (g *Graph) NumCollectionArgs() int {
	n := 0
	for _, t := range g.Tasks {
		n += len(t.Args)
	}
	return n
}

// AliasID returns the canonical representative of collection c: the
// lowest-ID collection with the same (Space, Lo, Hi). Collections that view
// exactly the same data through different arguments (Legion-style region
// requirements of different tasks) are aliases: the simulator tracks
// coherence, capacity and dependences per alias, while the mapping and the
// search treat each reference independently.
func (g *Graph) AliasID(c CollectionID) CollectionID {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.aliasIDLocked(c)
}

func (g *Graph) aliasIDLocked(c CollectionID) CollectionID {
	if len(g.aliasOf) != len(g.Collections) {
		g.aliasOf = make([]CollectionID, len(g.Collections))
		type key struct {
			space  string
			lo, hi int64
		}
		first := make(map[key]CollectionID)
		for i, col := range g.Collections {
			k := key{col.Space, col.Lo, col.Hi}
			if id, ok := first[k]; ok {
				g.aliasOf[i] = id
			} else {
				first[k] = col.ID
				g.aliasOf[i] = col.ID
			}
		}
	}
	return g.aliasOf[c]
}

// launchOrder returns the per-iteration launch sequence.
func (g *Graph) launchOrder() []TaskID {
	if len(g.Launch) > 0 {
		return g.Launch
	}
	order := make([]TaskID, len(g.Tasks))
	for i := range g.Tasks {
		order[i] = g.Tasks[i].ID
	}
	return order
}

// Deps returns the per-iteration dependence edges computed from data flow.
// The result is cached; mutating the graph invalidates the cache.
func (g *Graph) Deps() []Dep {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.depsLocked()
}

func (g *Graph) depsLocked() []Dep {
	if g.depsOK {
		return g.deps
	}
	// Data flow is tracked per alias: arguments that view the same
	// logical data through different collection entries still carry
	// dependences.
	lastWriter := make(map[CollectionID]TaskID)
	readersSince := make(map[CollectionID][]TaskID)
	for c := range g.Collections {
		lastWriter[CollectionID(c)] = -1
	}
	var deps []Dep
	seen := make(map[Dep]bool)
	add := func(d Dep) {
		if d.From == d.To || d.From < 0 {
			return
		}
		if !seen[d] {
			seen[d] = true
			deps = append(deps, d)
		}
	}
	for _, tid := range g.launchOrder() {
		t := g.Tasks[tid]
		for _, a := range t.Args {
			al := g.aliasIDLocked(a.Collection)
			if a.Privilege.Reads() {
				add(Dep{From: lastWriter[al], To: tid, Collection: a.Collection})
			}
			if a.Privilege.Writes() {
				// Writers depend on all readers since the last
				// writer (anti-dependence) and on the last
				// writer itself.
				for _, r := range readersSince[al] {
					add(Dep{From: r, To: tid, Collection: a.Collection})
				}
				add(Dep{From: lastWriter[al], To: tid, Collection: a.Collection})
				lastWriter[al] = tid
				readersSince[al] = readersSince[al][:0]
			}
			if a.Privilege.Reads() && !a.Privilege.Writes() {
				readersSince[al] = append(readersSince[al], tid)
			}
		}
	}
	g.deps = deps
	g.depsOK = true
	g.adjCache = nil
	return deps
}

// DepsInto returns the dependence edges whose To field is task id.
func (g *Graph) DepsInto(id TaskID) []Dep {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.adjCache == nil {
		g.adjCache = make(map[TaskID][]Dep)
		for _, d := range g.depsLocked() {
			g.adjCache[d.To] = append(g.adjCache[d.To], d)
		}
	}
	return g.adjCache[id]
}

// Validate checks structural invariants: every argument references an
// existing collection, every task has at least one variant, points are
// positive, and the dependence graph is acyclic within an iteration.
func (g *Graph) Validate() error {
	if len(g.Tasks) == 0 {
		return fmt.Errorf("graph %q has no tasks", g.Name)
	}
	for _, t := range g.Tasks {
		if len(t.Variants) == 0 {
			return fmt.Errorf("task %q has no variants", t.Name)
		}
		if t.Points <= 0 {
			return fmt.Errorf("task %q has %d points", t.Name, t.Points)
		}
		for _, a := range t.Args {
			if int(a.Collection) < 0 || int(a.Collection) >= len(g.Collections) {
				return fmt.Errorf("task %q references unknown collection %d", t.Name, a.Collection)
			}
			if a.BytesPerPoint < 0 {
				return fmt.Errorf("task %q has negative BytesPerPoint", t.Name)
			}
		}
		for k, v := range t.Variants {
			if v.Efficiency <= 0 || v.Efficiency > 1 {
				return fmt.Errorf("task %q variant %s has efficiency %v outside (0,1]", t.Name, k, v.Efficiency)
			}
			if v.WorkPerPoint < 0 {
				return fmt.Errorf("task %q variant %s has negative work", t.Name, k)
			}
		}
	}
	if g.Iterations <= 0 {
		return fmt.Errorf("graph %q has %d iterations", g.Name, g.Iterations)
	}
	// Launch-order position of every task; deps must point backwards.
	pos := make(map[TaskID]int)
	for i, id := range g.launchOrder() {
		if _, dup := pos[id]; dup {
			return fmt.Errorf("graph %q launches task %d twice per iteration", g.Name, id)
		}
		pos[id] = i
	}
	if len(pos) != len(g.Tasks) {
		return fmt.Errorf("graph %q launch order covers %d of %d tasks", g.Name, len(pos), len(g.Tasks))
	}
	for _, d := range g.Deps() {
		if pos[d.From] >= pos[d.To] {
			return fmt.Errorf("graph %q has a forward dependence %d->%d", g.Name, d.From, d.To)
		}
	}
	return nil
}

// TotalFootprintBytes returns the sum of all collection sizes. Overlapping
// collections are counted once per logical byte (per space interval union).
func (g *Graph) TotalFootprintBytes() int64 {
	type iv struct{ lo, hi int64 }
	bySpace := make(map[string][]iv)
	for _, c := range g.Collections {
		bySpace[c.Space] = append(bySpace[c.Space], iv{c.Lo, c.Hi})
	}
	var total int64
	for _, ivs := range bySpace {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		curLo, curHi := int64(0), int64(-1)
		started := false
		for _, v := range ivs {
			if !started || v.lo > curHi {
				if started {
					total += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
				started = true
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if started {
			total += curHi - curLo
		}
	}
	return total
}
