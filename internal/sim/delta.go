// DeltaInstance: incremental re-simulation for coordinate-descent search
// (DESIGN §14). CCD evaluates candidates that differ from the rotation's
// incumbent in one (or a few) mapping coordinates; re-simulating the whole
// program for each is almost entirely redundant. DeltaInstance caches a
// deep-recorded schedule of the incumbent ("base") — every copy op, exec,
// and per-launch coherence pre-state — and builds a candidate's schedule
// by splicing: launches of unchanged tasks whose argument state matches
// the base are copied verbatim; launches in the dirty region (changed
// tasks plus everything their collections' coherence state reaches,
// bounded by the overlap graph) are re-recorded against a coherence
// overlay. The spliced schedule folds to a Result byte-identical to the
// fold of a full recording (the CI differential gate and the property
// tests in delta_test.go enforce this).
//
// When the candidate is not a bounded delta — too many flipped decisions,
// placement rows of unchanged tasks moved (capacity accounting is global,
// so a spill elsewhere invalidates recorded durations), or the estimated
// dirty frontier exceeds MaxDirtyFrac — RunKeyed and RunRepeats fall back
// to the full path. Classification is a pure function of (candidate, base), exposed
// as Classify so the driver can count incremental/fallback evaluations
// deterministically on its sequential commit path.
package sim

import (
	"slices"
	"sync"
	"sync/atomic"

	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/taskir"
)

// DeltaInstance extends Instance with incremental re-simulation against a
// movable base mapping. All Instance methods remain available; RunKeyed
// and RunRepeats are overridden to try the incremental path first.
// Concurrent calls are safe.
type DeltaInstance struct {
	*Instance

	// MaxFlips bounds how many task decisions may differ from the base
	// for the incremental path (CCD flips one; a small budget covers
	// compound moves).
	MaxFlips int
	// MaxDirtyFrac bounds the estimated dirty fraction of the collection
	// alias space; beyond it a full re-simulation is assumed cheaper
	// than patching.
	MaxDirtyFrac float64

	// neigh[alias] lists the overlap-graph neighbor aliases: the
	// collections whose coherence state a change to `alias` can reach
	// directly. Used to estimate the dirty frontier during
	// classification (the patcher itself tracks exact dirtiness).
	neigh [][]taskir.CollectionID

	// base is published by pointer: an accept swaps in a fresh immutable
	// snapshot with one atomic store, and in-flight workers keep patching
	// against the snapshot they loaded — a superseded base is never
	// mutated, only unreferenced. SetBase on the search goroutine
	// therefore never blocks behind (or stalls) a worker mid-patch.
	base atomic.Pointer[deltaBase]
}

// deltaBase is one base-mapping snapshot. In-flight evaluations hold the
// snapshot they started with, so a concurrent SetBase never mixes two
// bases inside one patch (results are byte-identical either way; only
// which path served them could differ). All fields except the lazily
// memoized record are immutable after publication.
type deltaBase struct {
	key string
	mp  *mapping.Mapping

	// once guards the lazy deep-record; the results below are written
	// exactly once, before any reader returns from ensure.
	once sync.Once
	plan *PlacementPlan
	sch  *schedule // deep-recorded
	err  error
}

// NewDelta wraps an Instance with incremental re-simulation state. The
// overlap graph of the program bounds the classification frontier.
func NewDelta(in *Instance) *DeltaInstance {
	d := &DeltaInstance{Instance: in, MaxFlips: 3, MaxDirtyFrac: 0.8}
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

// SetBase declares mp the base mapping deltas are evaluated against
// (typically the search incumbent; the caller owns mp and must not
// mutate it afterwards — search incumbents are immutable by convention).
// The base's deep-recorded schedule is built lazily on first use and its
// fold schedule is pinned in the schedule cache. Setting the same base
// again is a no-op.
func (d *DeltaInstance) SetBase(mp *mapping.Mapping) {
	key := mp.Key()
	if b := d.base.Load(); b != nil && b.key == key {
		return
	}
	d.base.Store(&deltaBase{key: key, mp: mp})
	d.pinSched(key)
}

// getBase returns the current base snapshot, or nil.
func (d *DeltaInstance) getBase() *deltaBase {
	return d.base.Load()
}

// ensure lazily plans and deep-records the base on s, memoizing the
// outcome (including placement failure) on the snapshot; the record is
// copied out of s's scratch and cached. Concurrent callers of a cold base
// block on the one recording run; a warmed base costs one sync.Once
// fast-path load.
func (d *DeltaInstance) ensure(s *state, b *deltaBase) (*PlacementPlan, *schedule, error) {
	b.once.Do(func() {
		b.plan, b.err = d.planFor(b.key, b.mp)
		if b.err == nil {
			// Structure is config-independent: record once, fold under
			// any (noise, trace) config.
			b.sch = s.record(b.plan, true).clone()
			d.storeSched(b.key, b.sch)
		}
	})
	return b.plan, b.sch, b.err
}

// RunKeyed evaluates mp like Instance.RunKeyed but serves bounded deltas
// against the base incrementally. Results are byte-identical to the full
// path in every case, including *OOMError outcomes (the plan cache stores
// one error object per key, shared by both paths).
func (d *DeltaInstance) RunKeyed(key string, mp *mapping.Mapping, cfg Config) (*Result, error) {
	plan, err := d.planFor(key, mp)
	if err != nil {
		return nil, err
	}
	return d.keyed(key, plan, cfg, func(s *state) *schedule { return d.build(s, mp, plan) }), nil
}

// RunRepeats is Instance.RunRepeats with RunKeyed's schedule source: the
// cached schedule, else a patched or recorded one in recycled scratch,
// folded for every seed.
func (d *DeltaInstance) RunRepeats(key string, mp *mapping.Mapping, sigma float64, seeds []uint64) ([]*Result, error) {
	plan, err := d.planFor(key, mp)
	if err != nil {
		return nil, err
	}
	return d.repeats(key, plan, sigma, seeds, func(s *state) *schedule { return d.build(s, mp, plan) }), nil
}

// build writes mp's schedule into s's scratch: patched when mp is a bounded
// delta of the base, else a full noise-free recording.
func (d *DeltaInstance) build(s *state, mp *mapping.Mapping, plan *PlacementPlan) *schedule {
	if sch := d.tryPatch(s, mp, plan); sch != nil {
		return sch
	}
	return s.record(plan, false)
}

// Classify reports whether an evaluation of (key, mp) would be served
// incrementally against the current base: a pure, cheap function of
// (candidate, base) that never builds a schedule. The driver calls it on
// the sequential commit path to attribute evaluations to the
// sim.eval.incremental / sim.eval.fallback counters deterministically.
func (d *DeltaInstance) Classify(key string, mp *mapping.Mapping) bool {
	b := d.getBase()
	if b == nil {
		return false
	}
	plan, err := d.planFor(key, mp)
	if err != nil {
		return false
	}
	changed := make([]bool, len(d.g.Tasks))
	return d.classifyAgainst(mp, b, plan, changed)
}

// tryPatch classifies mp against the current base and, when it is a
// bounded delta, splices its finalized schedule into s's scratch. Returns
// nil when the candidate must take the full path.
func (d *DeltaInstance) tryPatch(s *state, mp *mapping.Mapping, plan *PlacementPlan) *schedule {
	b := d.getBase()
	if b == nil {
		return nil
	}
	changed := make([]bool, len(d.g.Tasks))
	if !d.classifyAgainst(mp, b, plan, changed) {
		return nil
	}
	_, baseSched, err := d.ensure(s, b)
	if err != nil {
		return nil
	}
	return d.patch(s, plan, baseSched, changed)
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

// classifyAgainst applies the three fallback conditions, filling
// changed[tid] for flipped tasks: (1) more than MaxFlips flipped
// decisions; (2) a placement row of an UNCHANGED task differs between
// the plans — capacity accounting is global, so a changed task's
// footprint can move another task's instances (spills), invalidating the
// recorded ops and durations the patcher would copy; (3) the estimated
// dirty frontier (changed tasks' aliases plus their overlap neighbors)
// exceeds MaxDirtyFrac of the alias space.
func (d *DeltaInstance) classifyAgainst(mp *mapping.Mapping, b *deltaBase, plan *PlacementPlan, changed []bool) bool {
	basePlan, err := d.planFor(b.key, b.mp)
	if err != nil {
		return false
	}
	flips := 0
	for tid := range changed {
		if !decisionsEqual(mp.Decision(taskir.TaskID(tid)), b.mp.Decision(taskir.TaskID(tid))) {
			changed[tid] = true
			flips++
			if flips > d.MaxFlips {
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
	return float64(dirty) <= d.MaxDirtyFrac*float64(nAliases)
}

// planRowsEqual compares the placement rows of task tid between two
// plans: node set and per-(arg, node) placements, unplaced entries
// included.
func planRowsEqual(a, b *PlacementPlan, tid taskir.TaskID) bool {
	return slices.Equal(a.taskNodes(tid), b.taskNodes(tid)) && slices.Equal(a.argRow(tid), b.argRow(tid))
}

// patch builds the candidate's schedule in s's scratch by walking the
// base's launches in order: clean launches (unchanged task, no unhealed
// dirty argument alias) are copied verbatim; dirty launches are
// re-recorded by s's structure pass, whose coherence state acts as an
// overlay seeded from the base's recorded pre-states. The fold computes
// all times from the spliced records.
func (d *DeltaInstance) patch(s *state, plan *PlacementPlan, base *schedule, changed []bool) *schedule {
	s.init(plan)
	rec := s.scratch.reset(false)

	topo := d.topo
	aliasDirty := make([]bool, len(d.g.Collections))
	perIter := len(topo.launch)
	for li := range base.launches {
		tid := topo.launch[li%perIter]
		deps := topo.argDeps[tid]
		dirty := changed[tid]
		if !dirty {
			for ai := range deps {
				al := deps[ai].alias
				if !aliasDirty[al] {
					continue
				}
				if launchPreMatches(s, base, li, ai, deps[ai]) {
					// The candidate's coherence state for this alias
					// converged back to the base's — the delta healed;
					// the base records are authoritative again.
					aliasDirty[al] = false
				} else {
					dirty = true
				}
			}
		}
		if !dirty {
			rec.copyLaunch(base, li)
			continue
		}
		// Seed the overlay from the base pre-state for aliases the
		// dirty region hasn't touched (for touched ones the overlay is
		// already current).
		for ai := range deps {
			if !aliasDirty[deps[ai].alias] {
				loadLaunchPre(s, base, li, ai, deps[ai])
			}
		}
		s.runTask(tid)
		rec.endLaunch()
		// Even read-only access mutates coherence state (a read makes a
		// new location valid), so every argument alias is now
		// candidate-divergent.
		for ai := range deps {
			aliasDirty[deps[ai].alias] = true
		}
	}
	rec.sch.finalize()
	return &rec.sch
}

// launchPreMatches reports whether the overlay's coherence state for
// launch li's argument ai equals the base's recorded pre-state
// (order-sensitive: a conservative subset of semantic equality — a false
// negative only costs a re-recorded launch, never correctness).
func launchPreMatches(s *state, base *schedule, li, ai int, dp argDep) bool {
	p := base.pres[int(base.preOff[li])+ai]
	locs := base.preLocs[p.locOff : p.locOff+p.locLen]
	if p.shard {
		cur := s.shardValid[dp.alias]
		if len(cur) != len(locs) {
			return false
		}
		for i := range cur {
			if cur[i] != locs[i] {
				return false
			}
		}
		return true
	}
	cur := s.sharedValid[dp.alias]
	if len(cur) != len(locs) {
		return false
	}
	for i := range cur {
		if cur[i] != locs[i] {
			return false
		}
	}
	return s.partial[dp.alias] == p.partial
}

// loadLaunchPre overwrites the overlay's coherence state for launch li's
// argument ai with the base's recorded pre-state.
func loadLaunchPre(s *state, base *schedule, li, ai int, dp argDep) {
	p := base.pres[int(base.preOff[li])+ai]
	locs := base.preLocs[p.locOff : p.locOff+p.locLen]
	if p.shard {
		copy(s.shardValid[dp.alias], locs)
		return
	}
	s.sharedValid[dp.alias] = append(s.sharedValid[dp.alias][:0], locs...)
	s.partial[dp.alias] = p.partial
}
