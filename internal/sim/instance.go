// Instance: the search-facing simulator entry point. A search evaluates
// thousands of mappings of ONE (machine, program) pair, and the paper's
// measurement protocol runs each candidate several times (7 repeats, 31 for
// finals). Instance amortizes everything that is invariant across those
// runs:
//
//   - topology tables (alias resolution, per-node inventories, channel
//     parameters) are built once at New;
//   - placement plans are cached by mapping key — placement is a pure
//     function of the mapping, so any revisit of the same mapping plans
//     placement once, and OOM verdicts are cached the same way;
//   - a candidate's structure is recorded once, noise-free, and every
//     repeat, the first included, takes its outcome from the timing fold
//     of that schedule;
//   - RunRepeats measures all of a candidate's repeats in one call into
//     the caller's Summaries: one plan lookup, one schedule, and one
//     lane-wise fold that carries up to 8 repeats' timelines side by side
//     (foldLanes), with no per-repeat allocation. It records into the
//     recycled scratch schedule of a pooled run state and caches nothing,
//     since no later call is left to fold it;
//   - RunKeyed caches its schedule by mapping key, copied out of the
//     scratch at exact length, so a revisit of the key folds without
//     recording;
//   - noise is immutable data: each (seed, sigma) tape and each lane
//     block of tapes is drawn once, at the longest run the program can
//     record (tapeLen), and shared by every later fold;
//   - run scratch (coherence state, the scratch schedule) and fold
//     scratch (timelines) are recycled through sync.Pools instead of
//     reallocated per run.
//
// RunKeyed and RunRepeats are safe for concurrent use; each result is a
// pure function of (mapping, config), whichever path served it.
// DeltaInstance (delta.go) adds only classification on top: it serves
// every run through these same paths.
//
// The worker pool measures independent candidates, each with one
// RunRepeats call: one plan probe and one lane-block noise lookup, each a
// short critical section under the Instance's one mutex, around a record
// and a fold that share nothing mutable (DESIGN §15). Every cached value
// is a pure function of its key and computed outside the lock, so a
// racing duplicate is byte-identical and its second store is harmless.

package sim

import (
	"sync"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// planCacheLimit bounds the plan cache; when it fills it is dropped
// (searches revisit recent mappings heavily, so an occasional reset is
// cheaper than tracking recency).
const planCacheLimit = 8192

// schedCacheLimit bounds RunKeyed's schedule cache. Schedules are much
// larger than plans — every copy op and exec of the recorded iterations —
// so the cache is kept small.
const schedCacheLimit = 64

// noiseCacheLimit bounds each noise cache: the driver derives seeds from
// (base seed, repeat index) alone, so a search touches only a handful of
// distinct tapes and lane blocks.
const noiseCacheLimit = 64

// planEntry is one cached placement outcome: the committed plan, or the
// *OOMError placement failed with.
type planEntry struct {
	plan *PlacementPlan
	err  error
}

// noiseKey identifies one noise stream.
type noiseKey struct {
	seed  uint64
	sigma float64
}

// Instance is a reusable simulator for one (machine, program) pair. Create
// one with New; RunKeyed returns the Result of one (mapping, config) and
// RunRepeats the Summaries of a candidate's repeats. Concurrent calls are
// safe.
type Instance struct {
	m    *machine.Machine
	g    *taskir.Graph
	topo *topology

	// tapeLen is the length of every noise tape: an upper bound on the
	// executions any mapping's run records, since runTask records at most
	// one exec per node per launch (TestNoiseTapeBound).
	tapeLen int

	// mu guards the caches below. Each maps a key to a pure function of
	// it: placement outcomes by mapping key, RunKeyed's recorded schedules
	// by mapping key, and noise tapes (the config's stream of log-normal
	// factors, one per exec in schedule order) by stream and by lane
	// block. Replaying a drawn tape changes nothing observable and saves
	// the fold the transcendentals, two thirds of its cost otherwise.
	mu        sync.Mutex
	plans     map[string]planEntry
	scheds    map[string]*schedule
	tapes     map[noiseKey][]float64
	laneTapes map[laneTapeKey][]lanes

	pool     sync.Pool // *state
	foldPool sync.Pool // *foldScratch
}

// New builds a reusable simulator instance for program g on machine m.
func New(m *machine.Machine, g *taskir.Graph) *Instance {
	topo := newTopology(m, g)
	return &Instance{
		m:         m,
		g:         g,
		topo:      topo,
		tapeLen:   g.Iterations * len(topo.launch) * topo.nodes,
		plans:     make(map[string]planEntry),
		scheds:    make(map[string]*schedule),
		tapes:     make(map[noiseKey][]float64),
		laneTapes: make(map[laneTapeKey][]lanes),
	}
}

// cached returns the value of k in *c, computing it with fill on a miss
// and storing it, after emptying *c if it holds limit entries. fill runs
// outside mu: every cached value is a pure function of its key, so a
// racing duplicate computes an identical value and the second store is
// harmless.
func cached[K comparable, V any](mu *sync.Mutex, c *map[K]V, limit int, k K, fill func() V) V {
	mu.Lock()
	v, ok := (*c)[k]
	mu.Unlock()
	if ok {
		return v
	}
	v = fill()
	mu.Lock()
	if len(*c) >= limit {
		*c = make(map[K]V)
	}
	(*c)[k] = v
	mu.Unlock()
	return v
}

// drawNoise returns the first n draws of the (seed, sigma) noise stream.
func drawNoise(seed uint64, sigma float64, n int) []float64 {
	rng := xrand.New(seed ^ 0x5bd1e995)
	tape := make([]float64, n)
	for i := range tape {
		tape[i] = rng.UnitMeanLogNormal(sigma)
	}
	return tape
}

// RunKeyed executes g under mapping mp, whose canonical key (mapping.Key)
// the caller supplies, and returns the execution result, or an *OOMError
// if the mapping does not fit, reusing topology, placement plans,
// schedules and scratch across calls. The key must belong to mp: it is the
// plan- and schedule-cache identity, and two mappings with equal keys have
// identical decisions and therefore identical plans. It is the
// single-config path, the only one that produces a Result with its maps
// and the Trace and Explain logs, and the only one that caches the
// schedule it records; a candidate's noisy repeats go through RunRepeats.
//
// It folds the key's cached schedule, else one recorded into a pooled
// state's scratch, copied out and cached.
func (in *Instance) RunKeyed(key string, mp *mapping.Mapping, cfg Config) (*Result, error) {
	plan, err := in.planFor(key, mp)
	if err != nil {
		return nil, err
	}
	sch := cached(&in.mu, &in.scheds, schedCacheLimit, key, func() *schedule {
		s := in.getState()
		defer in.putState(s)
		return s.record(plan).clone()
	})
	res := new(Result)
	in.fold(sch, plan, cfg, res)
	return res, nil
}

// RunRepeats measures the repeats of one candidate in one call, writing
// out[i] for seeds[i]; len(out) must equal len(seeds). out[i] equals the
// Summarize of RunKeyed(key, mp, Config{NoiseSigma: sigma, Seed:
// seeds[i]}) bit for bit. It plans once, records the schedule into
// recycled scratch, and folds it for all seeds together (foldRepeats). A
// placement failure is returned as the error, with out untouched.
//
// The schedule is folded in place and recycled without being cached: all
// of a candidate's repeats are folded by this one call, so a stored copy
// would serve only a later revisit.
func (in *Instance) RunRepeats(key string, mp *mapping.Mapping, sigma float64, seeds []uint64, out []Summary) error {
	plan, err := in.planFor(key, mp)
	if err != nil {
		return err
	}
	s := in.getState()
	in.foldRepeats(s.record(plan), plan, sigma, seeds, out)
	in.putState(s)
	return nil
}

// getState takes a run state, and with it a scratch schedule, from the
// pool.
func (in *Instance) getState() *state {
	if s, _ := in.pool.Get().(*state); s != nil {
		return s
	}
	return &state{}
}

// putState returns s to the pool, dropping its plan.
func (in *Instance) putState(s *state) {
	s.PlacementPlan = nil
	in.pool.Put(s)
}

// getFold takes a fold scratch from the pool.
func (in *Instance) getFold() *foldScratch {
	if fs, _ := in.foldPool.Get().(*foldScratch); fs != nil {
		return fs
	}
	return &foldScratch{}
}

// fold replays a recorded schedule under cfg with pooled scratch and the
// config's cached noise tape, and returns its Summary; a non-nil res
// receives the whole Result (foldSchedule).
func (in *Instance) fold(sch *schedule, plan *PlacementPlan, cfg Config, res *Result) Summary {
	var noise []float64
	if cfg.NoiseSigma > 0 {
		k := noiseKey{seed: cfg.Seed, sigma: cfg.NoiseSigma}
		noise = cached(&in.mu, &in.tapes, noiseCacheLimit, k, func() []float64 {
			return drawNoise(k.seed, k.sigma, in.tapeLen)
		})
	}
	fs := in.getFold()
	sum := foldSchedule(in.topo, plan, sch, cfg, noise, fs, res)
	in.foldPool.Put(fs)
	return sum
}

// foldRepeats folds sch once per seed into out: blocks of laneWidth seeds
// go through foldLanes, and a remainder shorter than laneMin folds seed by
// seed.
func (in *Instance) foldRepeats(sch *schedule, plan *PlacementPlan, sigma float64, seeds []uint64, out []Summary) {
	i := 0
	if len(seeds) >= laneMin {
		fs := in.getFold()
		for ; len(seeds)-i >= laneMin; i += laneWidth {
			blk := seeds[i:min(i+laneWidth, len(seeds))]
			var noise []lanes
			if sigma > 0 {
				noise = in.laneTape(blk, sigma)
			}
			foldLanes(in.topo, plan, sch, noise, out[i:i+len(blk)], fs)
		}
		in.foldPool.Put(fs)
	}
	for ; i < len(seeds); i++ {
		out[i] = in.fold(sch, plan, Config{NoiseSigma: sigma, Seed: seeds[i]}, nil)
	}
}

// laneTape returns the noise block of seeds (at most laneWidth; padding
// lanes repeat the last seed), transposed so that entry [ex][l] is draw ex
// of lane l's tape.
func (in *Instance) laneTape(seeds []uint64, sigma float64) []lanes {
	k := laneTapeKey{sigma: sigma}
	for l := range k.seeds {
		k.seeds[l] = seeds[min(l, len(seeds)-1)]
	}
	return cached(&in.mu, &in.laneTapes, noiseCacheLimit, k, func() []lanes {
		blk := make([]lanes, in.tapeLen)
		for l, seed := range k.seeds {
			for ex, v := range drawNoise(seed, sigma, in.tapeLen) {
				blk[ex][l] = v
			}
		}
		return blk
	})
}

// PlanPlacement returns the (possibly cached) placement plan for mp, or
// the *OOMError placement fails with. It is the cached equivalent of the
// package-level PlanPlacement.
func (in *Instance) PlanPlacement(mp *mapping.Mapping) (*PlacementPlan, error) {
	return in.planFor(mp.Key(), mp)
}

// planFor returns the cached placement outcome for key, planning (and
// caching) it on a miss.
func (in *Instance) planFor(key string, mp *mapping.Mapping) (*PlacementPlan, error) {
	e := cached(&in.mu, &in.plans, planCacheLimit, key, func() planEntry {
		plan, err := planPlacement(in.topo, mp)
		return planEntry{plan: plan, err: err}
	})
	return e.plan, e.err
}
