// DeltaInstance: delta classification for coordinate-descent search
// (DESIGN §14). CCD evaluates candidates that differ from the rotation's
// incumbent in one (or a few) mapping coordinates. Classify reports
// whether a candidate is a bounded delta of the current base: few enough
// flipped decisions, no moved placement row of an unchanged task, and an
// estimated dirty frontier within maxDirtyFrac of the alias space. The
// driver calls it on its sequential commit path to attribute evaluations
// to the sim.eval.incremental / sim.eval.fallback counters
// deterministically.
//
// Classification selects no simulation path: every candidate is recorded
// and folded by the embedded Instance (DESIGN §14 says why).
package sim

import (
	"slices"

	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/taskir"
)

// DeltaInstance extends Instance with classification against a movable
// base mapping. All Instance methods remain available and serve every
// candidate the same way, and like an Instance it belongs to one
// goroutine.
type DeltaInstance struct {
	*Instance

	// maxFlips bounds how many task decisions may differ from the base
	// for a bounded delta (CCD flips one; a small budget covers compound
	// moves).
	maxFlips int
	// maxDirtyFrac bounds the estimated dirty fraction of the collection
	// alias space.
	maxDirtyFrac float64

	// neigh[alias] lists the overlap-graph neighbor aliases: the
	// collections whose coherence state a change to `alias` can reach
	// directly. Used to estimate the dirty frontier.
	neigh [][]taskir.CollectionID

	// base is the current base mapping, nil before the first SetBase,
	// and basePlan and baseErr its placement outcome. basePlan is a plan
	// buffer SetBase took over from the Instance, so planning candidates
	// never overwrites it.
	base     *mapping.Mapping
	basePlan *PlacementPlan
	baseErr  error
}

// NewDelta wraps an Instance with classification state. The overlap graph
// of the program bounds the classification frontier.
func NewDelta(in *Instance) *DeltaInstance {
	d := &DeltaInstance{Instance: in, maxFlips: 3, maxDirtyFrac: 0.8}
	og := overlap.Build(in.g)
	nc := len(in.g.Collections)
	d.neigh = make([][]taskir.CollectionID, nc)
	for c := 0; c < nc; c++ {
		al := in.topo.alias[c]
		for _, nb := range og.Neighbors(taskir.CollectionID(c)) {
			nal := in.topo.alias[nb]
			if nal == al {
				continue
			}
			dup := false
			for _, e := range d.neigh[al] {
				if e == nal {
					dup = true
					break
				}
			}
			if !dup {
				d.neigh[al] = append(d.neigh[al], nal)
			}
		}
	}
	return d
}

// SetBase declares mp the base mapping candidates are classified against
// (typically the search incumbent; the caller owns mp and must not mutate
// it afterwards — search incumbents are immutable by convention), and
// plans it once for every Classify until the next SetBase. It is a
// planning call: a base just planned (the accepted candidate) is not
// planned again, and its plan stays valid as the Instance's last.
func (d *DeltaInstance) SetBase(mp *mapping.Mapping) {
	plan, err := d.planFor(mp.Key(), mp)
	if err == nil && plan == d.buf {
		// Take the buffer over; the previous base's buffer, which no
		// entry refers to any more, takes its place.
		d.buf, d.basePlan = d.basePlan, plan
	}
	d.base, d.baseErr = mp, err
}

// Classify reports whether (key, mp) is a bounded delta of the current
// base: a pure, cheap function of (candidate, base) that builds no
// schedule. The driver calls it on the sequential commit path to
// attribute evaluations to the sim.eval.incremental / sim.eval.fallback
// counters deterministically.
//
// A candidate is a fallback when there is no base, when either mapping
// fails placement, or when any of three bounds fails: (1) at most maxFlips
// task decisions differ from the base; (2) no UNCHANGED task's placement
// row differs between the plans — capacity accounting is global, so a
// changed task's footprint can move another task's instances (spills);
// (3) the estimated dirty frontier (changed tasks' aliases plus their
// overlap neighbors) is at most maxDirtyFrac of the alias space.
func (d *DeltaInstance) Classify(key string, mp *mapping.Mapping) bool {
	if d.base == nil {
		return false
	}
	if d.baseErr != nil {
		return false
	}
	plan, err := d.planFor(key, mp)
	if err != nil {
		return false
	}
	basePlan := d.basePlan
	changed := make([]bool, len(d.g.Tasks))
	flips := 0
	for tid := range changed {
		if !decisionsEqual(mp.Decision(taskir.TaskID(tid)), d.base.Decision(taskir.TaskID(tid))) {
			changed[tid] = true
			flips++
			if flips > d.maxFlips {
				return false
			}
		}
	}
	for tid := range changed {
		if !changed[tid] && !planRowsEqual(plan, basePlan, taskir.TaskID(tid)) {
			return false
		}
	}
	nAliases := len(d.g.Collections)
	marked := make([]bool, nAliases)
	dirty := 0
	for tid := range changed {
		if !changed[tid] {
			continue
		}
		for _, dp := range d.topo.argDeps[tid] {
			if !marked[dp.alias] {
				marked[dp.alias] = true
				dirty++
			}
			for _, nb := range d.neigh[dp.alias] {
				if !marked[nb] {
					marked[nb] = true
					dirty++
				}
			}
		}
	}
	return float64(dirty) <= d.maxDirtyFrac*float64(nAliases)
}

// decisionsEqual reports whether two task decisions are identical,
// including fallback priority lists (fallbacks steer placement, so they
// are part of the delta). The pointer compare is the COW fast path: a
// CloneCOW candidate shares all unchanged decisions with its parent.
func decisionsEqual(a, b *mapping.Decision) bool {
	if a == b {
		return true
	}
	if a.Distribute != b.Distribute || a.Proc != b.Proc || len(a.Mems) != len(b.Mems) {
		return false
	}
	for i := range a.Mems {
		if len(a.Mems[i]) != len(b.Mems[i]) {
			return false
		}
		for j := range a.Mems[i] {
			if a.Mems[i][j] != b.Mems[i][j] {
				return false
			}
		}
	}
	return true
}

// planRowsEqual compares the placement rows of task tid between two
// plans: node set and per-(arg, node) placements, unplaced entries
// included.
func planRowsEqual(a, b *PlacementPlan, tid taskir.TaskID) bool {
	return slices.Equal(a.taskNodes(tid), b.taskNodes(tid)) && slices.Equal(a.argRow(tid), b.argRow(tid))
}
