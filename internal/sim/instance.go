// Instance: the search-facing simulator entry point. A search evaluates
// thousands of mappings of ONE (machine, program) pair, and the paper's
// measurement protocol runs each candidate several times (7 repeats, 31 for
// finals) and measures it once. Instance amortizes everything that is
// invariant across those runs, and keeps nothing a candidate needs only
// while it is measured:
//
//   - topology tables (alias resolution, per-node inventories, channel
//     parameters) are built once at New;
//   - placement plans are rebuilt into buffers the Instance owns and
//     recycles: the Instance keeps the outcome of its last planning call,
//     so the calls that measure and classify one candidate plan it once,
//     and a DeltaInstance keeps its base's plan beside it (SetBase). A
//     plan an Instance returns is valid until its next planning call;
//   - a candidate's structure is recorded once, noise-free, and every
//     repeat, the first included, takes its outcome from the timing fold
//     of that schedule;
//   - RunRepeats measures all of a candidate's repeats in one call into
//     the caller's Summaries: one plan, one schedule, and one lane-wise
//     fold that carries up to 8 repeats' timelines side by side
//     (foldLanes, or its AVX2 kernel where the CPU has AVX2), with no
//     per-repeat allocation. It records into the Instance's recycled
//     scratch schedule and caches nothing, since no later call is left to
//     fold it;
//   - RunKeyed caches its schedule by mapping key, copied out of the
//     scratch at exact length, so a revisit of the key folds without
//     recording;
//   - noise is immutable data: each (seed, sigma) tape and each lane
//     block of tapes is drawn once, at the longest run the program can
//     record (tapeLen), and shared by every later fold;
//   - run scratch (coherence state, the scratch schedule) and fold
//     scratch (timelines) are the Instance's own, reused by every run.
//
// An Instance belongs to one goroutine: each search owns one and uses it
// from its search goroutine (DESIGN §15), so nothing in it is locked.
// Searches side by side each build their own over a shared machine and
// program, which an Instance only reads. Each result is a pure function of
// (mapping, config), whichever path served it. DeltaInstance (delta.go)
// adds only classification on top: it serves every run through these same
// paths.

package sim

import (
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// schedCacheLimit bounds RunKeyed's schedule cache. Schedules are much
// larger than plans — every copy op and exec of the recorded iterations —
// so the cache is kept small.
const schedCacheLimit = 64

// noiseCacheLimit bounds each noise cache: the driver derives seeds from
// (base seed, repeat index) alone, so a search touches only a handful of
// distinct tapes and lane blocks.
const noiseCacheLimit = 64

// planEntry is the outcome of one planning call: the mapping key, and the
// plan or the *OOMError placement failed with.
type planEntry struct {
	key  string
	plan *PlacementPlan
	err  error
}

// noiseKey identifies one noise stream.
type noiseKey struct {
	seed  uint64
	sigma float64
}

// Instance is a reusable simulator for one (machine, program) pair, used
// by one goroutine. Create one with New; RunKeyed returns the Result of
// one (mapping, config) and RunRepeats the Summaries of a candidate's
// repeats.
type Instance struct {
	m    *machine.Machine
	g    *taskir.Graph
	topo *topology

	// tapeLen is the length of every noise tape: an upper bound on the
	// executions any mapping's run records, since runTask records at most
	// one exec per node per launch (TestNoiseTapeBound).
	tapeLen int

	// last is the outcome of the latest planning call (zero before the
	// first). buf is the buffer the next plan is built into, and ledger
	// the capacity-ledger scratch of every build; last's plan is buf, or
	// the delta base's plan once SetBase has taken that buffer over.
	last   planEntry
	buf    *PlacementPlan
	ledger []int64

	// Bounded caches, each mapping a key to a pure function of it:
	// RunKeyed's recorded schedules by mapping key, and noise tapes (the
	// config's stream of log-normal factors, one per exec in schedule
	// order) by stream and by lane block. Replaying a drawn tape changes
	// nothing observable and saves the fold the transcendentals, two
	// thirds of its cost otherwise.
	scheds    map[string]*schedule
	tapes     map[noiseKey][]float64
	laneTapes map[laneTapeKey][]lanes

	// run and folds are the scratch of the structure pass and the folds.
	run   state
	folds foldScratch
}

// New builds a reusable simulator instance for program g on machine m.
func New(m *machine.Machine, g *taskir.Graph) *Instance {
	topo := newTopology(m, g)
	return &Instance{
		m:         m,
		g:         g,
		topo:      topo,
		tapeLen:   g.Iterations * len(topo.launch) * topo.nodes,
		scheds:    make(map[string]*schedule),
		tapes:     make(map[noiseKey][]float64),
		laneTapes: make(map[laneTapeKey][]lanes),
	}
}

// cached returns the value of k in c, computing it with fill on a miss and
// storing it, after emptying c if it holds limit entries.
func cached[K comparable, V any](c map[K]V, limit int, k K, fill func() V) V {
	if v, ok := c[k]; ok {
		return v
	}
	v := fill()
	if len(c) >= limit {
		clear(c)
	}
	c[k] = v
	return v
}

// noiseStream returns the generator of the seed's noise stream.
func noiseStream(seed uint64) *xrand.RNG {
	return xrand.New(seed ^ 0x5bd1e995)
}

// drawNoise returns the first n draws of the (seed, sigma) noise stream.
func drawNoise(seed uint64, sigma float64, n int) []float64 {
	rng := noiseStream(seed)
	tape := make([]float64, n)
	for i := range tape {
		tape[i] = rng.UnitMeanLogNormal(sigma)
	}
	return tape
}

// RunKeyed executes g under mapping mp, whose canonical key (mapping.Key)
// the caller supplies, and returns the execution result, or an *OOMError
// if the mapping does not fit, reusing topology, plan buffers, schedules
// and scratch across calls. The key must belong to mp: it is the plan and
// schedule identity, and two mappings with equal keys have identical
// decisions and therefore identical plans. It is the single-config path,
// the only one that produces a Result with its maps and the Trace and
// Explain logs, and the only one that caches the schedule it records; a
// candidate's noisy repeats go through RunRepeats.
//
// It folds the key's cached schedule, else one recorded into the run
// scratch, copied out and cached.
func (in *Instance) RunKeyed(key string, mp *mapping.Mapping, cfg Config) (*Result, error) {
	plan, err := in.planFor(key, mp)
	if err != nil {
		return nil, err
	}
	sch := cached(in.scheds, schedCacheLimit, key, func() *schedule {
		return in.run.record(plan).clone()
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
	return in.runRepeats(hostLanes, key, mp, sigma, seeds, out)
}

// runRepeats is RunRepeats with its lane blocks folded by lf.
func (in *Instance) runRepeats(lf laneFold, key string, mp *mapping.Mapping, sigma float64, seeds []uint64, out []Summary) error {
	plan, err := in.planFor(key, mp)
	if err != nil {
		return err
	}
	in.foldRepeats(lf, in.run.record(plan), plan, sigma, seeds, out)
	return nil
}

// fold replays a recorded schedule under cfg with the fold scratch and the
// config's cached noise tape, and returns its Summary; a non-nil res
// receives the whole Result (foldSchedule).
func (in *Instance) fold(sch *schedule, plan *PlacementPlan, cfg Config, res *Result) Summary {
	var noise []float64
	if cfg.NoiseSigma > 0 {
		k := noiseKey{seed: cfg.Seed, sigma: cfg.NoiseSigma}
		noise = cached(in.tapes, noiseCacheLimit, k, func() []float64 {
			return drawNoise(k.seed, k.sigma, in.tapeLen)
		})
	}
	return foldSchedule(in.topo, plan, sch, cfg, noise, &in.folds, res)
}

// foldRepeats folds sch once per seed into out: blocks of laneWidth seeds
// go through lf, and a remainder shorter than lf.min folds seed by seed.
func (in *Instance) foldRepeats(lf laneFold, sch *schedule, plan *PlacementPlan, sigma float64, seeds []uint64, out []Summary) {
	i := 0
	for ; len(seeds)-i >= lf.min; i += laneWidth {
		blk := seeds[i:min(i+laneWidth, len(seeds))]
		var noise []lanes
		if sigma > 0 {
			noise = in.laneTape(blk, sigma)
		}
		lf.fold(in.topo, plan, sch, noise, out[i:i+len(blk)], &in.folds)
	}
	for ; i < len(seeds); i++ {
		out[i] = in.fold(sch, plan, Config{NoiseSigma: sigma, Seed: seeds[i]}, nil)
	}
}

// laneTape returns the noise block of seeds (at most laneWidth; padding
// lanes repeat the last seed), transposed so that entry [ex][l] is draw ex
// of lane l's tape. Each lane's stream is drawn straight into the block,
// and a lane whose seed is the one before it copies that lane.
func (in *Instance) laneTape(seeds []uint64, sigma float64) []lanes {
	k := laneTapeKey{sigma: sigma}
	for l := range k.seeds {
		k.seeds[l] = seeds[min(l, len(seeds)-1)]
	}
	return cached(in.laneTapes, noiseCacheLimit, k, func() []lanes {
		blk := make([]lanes, in.tapeLen)
		for l, seed := range k.seeds {
			if l > 0 && seed == k.seeds[l-1] {
				for ex := range blk {
					blk[ex][l] = blk[ex][l-1]
				}
				continue
			}
			rng := noiseStream(seed)
			for ex := range blk {
				blk[ex][l] = rng.UnitMeanLogNormal(sigma)
			}
		}
		return blk
	})
}

// PlanPlacement returns the placement plan for mp, or the *OOMError
// placement fails with: what the package-level PlanPlacement returns,
// built into the Instance's recycled buffers. The plan is valid until the
// Instance's next planning call (PlanPlacement, RunKeyed, RunRepeats, or a
// DeltaInstance's SetBase or Classify); a caller that keeps a plan uses
// the package-level PlanPlacement.
func (in *Instance) PlanPlacement(mp *mapping.Mapping) (*PlacementPlan, error) {
	return in.planFor(mp.Key(), mp)
}

// planFor returns the placement outcome of mp, whose key is key: the last
// call's if it planned the same key, else one built into buf.
func (in *Instance) planFor(key string, mp *mapping.Mapping) (*PlacementPlan, error) {
	if in.last.key == key && (in.last.plan != nil || in.last.err != nil) {
		return in.last.plan, in.last.err
	}
	if in.buf == nil {
		in.buf = new(PlacementPlan)
	}
	var err error
	in.ledger, err = in.buf.build(in.topo, mp, in.ledger)
	in.last = planEntry{key: key, plan: in.buf, err: err}
	if err != nil {
		in.last.plan = nil
	}
	return in.last.plan, err
}
