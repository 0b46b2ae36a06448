// Instance: the search-facing simulator entry point. A search evaluates
// thousands of mappings of ONE (machine, program) pair, and the paper's
// measurement protocol runs each candidate several times (7 repeats, 31 for
// finals). Instance amortizes everything that is invariant across those
// runs:
//
//   - topology tables (alias resolution, per-node inventories, channel
//     parameters) are built once at New;
//   - placement plans are cached by mapping key — placement is a pure
//     function of the mapping, so the repeats of one candidate (and any
//     revisit of the same mapping) plan placement exactly once, and OOM
//     verdicts are cached the same way;
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
//   - run scratch (coherence state, the scratch schedule) and fold
//     scratch (timelines) are recycled through sync.Pools instead of
//     reallocated per run.
//
// RunKeyed and RunRepeats are safe for concurrent use; each result is a
// pure function of (mapping, config), whichever path served it.
// DeltaInstance (delta.go) adds only classification on top: it serves
// every run through these same paths.
//
// Concurrency design (DESIGN §15): the worker pool evaluates independent
// candidates, so the hot path is built to share nothing mutable between
// concurrent runs. Shared state is read-mostly and partitioned:
//
//   - the plan and schedule caches are sharded by key hash — concurrent
//     runs of different candidates touch different shards, so a cache
//     probe is an uncontended RLock instead of a fight over one global
//     mutex;
//   - noise tapes publish their draw prefix by pointer (copy-on-publish):
//     the fold's read is one atomic load, and the tape mutex is taken
//     only to extend the prefix — which happens O(distinct lengths) times
//     per search, not O(runs). Each pooled fold scratch additionally
//     memoizes its own (seed, sigma) → tape table, so steady-state folds
//     resolve their tape without touching any shared map;
//   - run scratch and fold scratch come from sync.Pools, which are per-P
//     free lists — effectively per-worker run state with no coordination.
//
// Every cache stays a pure function of its key, so a worker can never
// observe a stale-but-wrong entry; duplicate computation under races is
// byte-identical and the second store is harmless.

package sim

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// planCacheLimit bounds the plan cache; when a shard fills, that shard is
// dropped (searches revisit recent mappings heavily, so an occasional
// partial reset is cheaper than tracking recency).
const planCacheLimit = 8192

// planShardCount partitions the plan cache by key hash. 64 shards make a
// concurrent probe by 8–16 workers effectively collision-free while
// keeping the per-Instance footprint trivial. Must be a power of two.
const planShardCount = 64

// schedCacheLimit bounds the recorded-schedule cache (schedule.go), which
// holds RunKeyed's schedules. Schedules are much larger than plans — every
// copy op and exec of the recorded iterations — so the cache is kept
// small. When a shard fills it is reset.
const schedCacheLimit = 64

// schedShardCount partitions the schedule cache. Fewer shards than the
// plan cache: the cache itself is small.
const schedShardCount = 8

// planEntry is one cached placement outcome: the committed plan, or the
// *OOMError placement failed with.
type planEntry struct {
	plan *PlacementPlan
	err  error
}

// planShard is one partition of the plan cache.
type planShard struct {
	mu sync.RWMutex
	m  map[string]planEntry
}

// schedShard is one partition of the recorded-schedule cache.
type schedShard struct {
	mu sync.RWMutex
	m  map[string]*schedule
}

// shardSeed keys the shard hash. One process-wide seed is fine: sharding
// is a performance partition, not a security boundary, and a fixed seed
// keeps shard assignment deterministic within a process.
var shardSeed = maphash.MakeSeed()

// shardIndex maps a cache key to a shard slot in [0, n). n must be a
// power of two.
func shardIndex(key string, n int) int {
	return int(maphash.String(shardSeed, key) & uint64(n-1))
}

// Instance is a reusable simulator for one (machine, program) pair. Create
// one with New; RunKeyed returns the Result of one (mapping, config) and
// RunRepeats the Summaries of a candidate's repeats. Concurrent calls are
// safe.
type Instance struct {
	m    *machine.Machine
	g    *taskir.Graph
	topo *topology

	plans [planShardCount]planShard

	pool sync.Pool // *state

	// Recorded schedules by mapping key, stored by RunKeyed: a later run
	// of the key folds the schedule under its own config instead of
	// recording it again.
	scheds [schedShardCount]schedShard

	foldPool sync.Pool // *foldScratch

	// Noise tapes by (seed, sigma): the simulator's noise stream is a
	// pure function of the config, not of the mapping, so folds replay a
	// cached tape of draw values instead of re-deriving the log-normal
	// transcendentals (two thirds of a fold's cost otherwise). A tape is
	// the stream of one seeded RNG, drawn once per execution in schedule
	// order, so caching it changes nothing observable. The map is
	// read-mostly (a search uses a few dozen distinct seeds) and each fold
	// scratch carries its own L1 over it, so the RWMutex is a cold-path
	// cost only.
	noiseMu sync.RWMutex
	noise   map[noiseKey]*noiseTape

	planHits   atomic.Int64
	planMisses atomic.Int64
}

// noiseCacheLimit bounds the noise-tape cache; the driver derives seeds
// from (base seed, repeat index) alone, so a search touches only a
// handful of distinct tapes.
const noiseCacheLimit = 64

// noiseKey identifies one noise stream.
type noiseKey struct {
	seed  uint64
	sigma float64
}

// noiseTape is the memoized prefix of one noise stream. The drawn prefix
// is published by pointer as an immutable snapshot: readers take one
// atomic load; the mutex guards only the parked RNG and the
// copy-on-publish extension, so concurrent folds of warmed tapes never
// serialize.
type noiseTape struct {
	factors atomic.Pointer[[]float64]
	sigma   float64

	mu  sync.Mutex
	rng xrand.RNG
}

// prefix returns the first n draws of the tape, extending it as needed.
// The returned slice is immutable: extensions publish a fresh copy and
// never touch a snapshot readers may hold.
func (tp *noiseTape) prefix(n int) []float64 {
	if f := tp.factors.Load(); f != nil && len(*f) >= n {
		return (*f)[:n:n]
	}
	tp.mu.Lock()
	defer tp.mu.Unlock()
	var cur []float64
	if f := tp.factors.Load(); f != nil {
		cur = *f
	}
	if len(cur) < n {
		next := make([]float64, len(cur), n)
		copy(next, cur)
		for len(next) < n {
			next = append(next, tp.rng.UnitMeanLogNormal(tp.sigma))
		}
		tp.factors.Store(&next)
		cur = next
	}
	return cur[:n:n]
}

// noiseFactors returns the first n draws of the (seed, sigma) noise
// stream. The returned slice is a stable snapshot: later extensions
// publish new slices and never mutate it. fs, when non-nil, is the
// caller's fold scratch whose local tape table short-circuits the shared
// map.
func (in *Instance) noiseFactors(fs *foldScratch, seed uint64, sigma float64, n int) []float64 {
	k := noiseKey{seed: seed, sigma: sigma}
	if fs != nil {
		if tp, ok := fs.noise[k]; ok {
			return tp.prefix(n)
		}
	}
	tp := in.noiseTape(k)
	if fs != nil {
		if fs.noise == nil {
			fs.noise = make(map[noiseKey]*noiseTape, 8)
		}
		fs.noise[k] = tp
	}
	return tp.prefix(n)
}

// noiseTape resolves (and on first use registers) the tape for k in the
// shared table.
func (in *Instance) noiseTape(k noiseKey) *noiseTape {
	in.noiseMu.RLock()
	tp := in.noise[k]
	in.noiseMu.RUnlock()
	if tp != nil {
		return tp
	}
	in.noiseMu.Lock()
	defer in.noiseMu.Unlock()
	if tp = in.noise[k]; tp != nil {
		return tp
	}
	if len(in.noise) >= noiseCacheLimit {
		in.noise = make(map[noiseKey]*noiseTape)
	}
	tp = newNoiseTape(k)
	in.noise[k] = tp
	return tp
}

// newNoiseTape returns the undrawn tape of the noise stream k.
func newNoiseTape(k noiseKey) *noiseTape {
	return &noiseTape{rng: *xrand.New(k.seed ^ 0x5bd1e995), sigma: k.sigma}
}

// New builds a reusable simulator instance for program g on machine m.
func New(m *machine.Machine, g *taskir.Graph) *Instance {
	in := &Instance{
		m:     m,
		g:     g,
		topo:  newTopology(m, g),
		noise: make(map[noiseKey]*noiseTape),
	}
	for i := range in.plans {
		in.plans[i].m = make(map[string]planEntry)
	}
	for i := range in.scheds {
		in.scheds[i].m = make(map[string]*schedule)
	}
	return in
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
// state's scratch, copied out and cached. Concurrent first runs of one key
// each record; the schedules are identical and the second store is
// harmless.
func (in *Instance) RunKeyed(key string, mp *mapping.Mapping, cfg Config) (*Result, error) {
	plan, err := in.planFor(key, mp)
	if err != nil {
		return nil, err
	}
	sch := in.schedFor(key)
	if sch == nil {
		s := in.getState()
		sch = s.record(plan).clone()
		in.putState(s)
		in.storeSched(key, sch)
	}
	res := new(Result)
	in.fold(sch, plan, cfg, res)
	return res, nil
}

// RunRepeats measures the repeats of one candidate in one call, writing
// out[i] for seeds[i]; len(out) must equal len(seeds). out[i] equals the
// Summarize of RunKeyed(key, mp, Config{NoiseSigma: sigma, Seed:
// seeds[i]}) bit for bit. It plans once, takes the cached schedule or
// records one into recycled scratch, and folds it for all seeds together
// (foldRepeats). A placement failure is returned as the error, with out
// untouched.
//
// A schedule recorded here is folded in place and recycled without being
// cached: all of a candidate's repeats are folded by this one call, so a
// stored copy would serve only a later revisit.
func (in *Instance) RunRepeats(key string, mp *mapping.Mapping, sigma float64, seeds []uint64, out []Summary) error {
	plan, err := in.planFor(key, mp)
	if err != nil {
		return err
	}
	if sch := in.schedFor(key); sch != nil {
		in.foldRepeats(sch, plan, sigma, seeds, out)
		return nil
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

// fold replays a recorded schedule under cfg with pooled scratch and the
// config's cached noise tape, and returns its Summary; a non-nil res
// receives the whole Result (foldSchedule).
func (in *Instance) fold(sch *schedule, plan *PlacementPlan, cfg Config, res *Result) Summary {
	fs, _ := in.foldPool.Get().(*foldScratch)
	if fs == nil {
		fs = &foldScratch{}
	}
	var noise []float64
	if cfg.NoiseSigma > 0 {
		noise = in.noiseFactors(fs, cfg.Seed, cfg.NoiseSigma, sch.numExecs)
	}
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
		fs, _ := in.foldPool.Get().(*foldScratch)
		if fs == nil {
			fs = &foldScratch{}
		}
		for ; len(seeds)-i >= laneMin; i += laneWidth {
			blk := seeds[i:min(i+laneWidth, len(seeds))]
			var noise []lanes
			if sigma > 0 {
				noise = in.laneTape(fs, blk, sigma, sch.numExecs)
			}
			foldLanes(in.topo, plan, sch, noise, out[i:i+len(blk)], fs)
		}
		in.foldPool.Put(fs)
	}
	for ; i < len(seeds); i++ {
		out[i] = in.fold(sch, plan, Config{NoiseSigma: sigma, Seed: seeds[i]}, nil)
	}
}

// laneTape returns the first n draws of the noise block of seeds (at most
// laneWidth; padding lanes repeat the last seed), transposed so that entry
// [ex][l] is draw ex of lane l's tape, and memoized in fs.
func (in *Instance) laneTape(fs *foldScratch, seeds []uint64, sigma float64, n int) []lanes {
	k := laneTapeKey{sigma: sigma}
	for l := range k.seeds {
		k.seeds[l] = seeds[min(l, len(seeds)-1)]
	}
	if blk := fs.laneTapes[k]; len(blk) >= n {
		return blk[:n]
	}
	blk := make([]lanes, n)
	for l, seed := range k.seeds {
		for ex, v := range in.noiseFactors(fs, seed, sigma, n) {
			blk[ex][l] = v
		}
	}
	if fs.laneTapes == nil || len(fs.laneTapes) >= laneTapeLimit {
		fs.laneTapes = make(map[laneTapeKey][]lanes, laneTapeLimit)
	}
	fs.laneTapes[k] = blk
	return blk
}

// schedFor returns the cached schedule for key, or nil.
func (in *Instance) schedFor(key string) *schedule {
	sh := &in.scheds[shardIndex(key, schedShardCount)]
	sh.mu.RLock()
	sch := sh.m[key]
	sh.mu.RUnlock()
	return sch
}

// storeSched caches a finalized schedule under key, resetting the shard
// when full. Racing duplicate stores are harmless: recording is
// deterministic, so both record identical schedules.
func (in *Instance) storeSched(key string, sch *schedule) {
	sh := &in.scheds[shardIndex(key, schedShardCount)]
	sh.mu.Lock()
	if len(sh.m) >= schedCacheLimit/schedShardCount {
		sh.m = make(map[string]*schedule, schedCacheLimit/schedShardCount)
	}
	sh.m[key] = sch
	sh.mu.Unlock()
}

// dropSchedule forgets key's cached schedule (test/bench hook: forces
// RunKeyed back onto the recording path).
func (in *Instance) dropSchedule(key string) {
	sh := &in.scheds[shardIndex(key, schedShardCount)]
	sh.mu.Lock()
	delete(sh.m, key)
	sh.mu.Unlock()
}

// PlanPlacement returns the (possibly cached) placement plan for mp, or
// the *OOMError placement fails with. It is the cached equivalent of the
// package-level PlanPlacement.
func (in *Instance) PlanPlacement(mp *mapping.Mapping) (*PlacementPlan, error) {
	return in.planFor(mp.Key(), mp)
}

// PlanCacheStats returns how many plan lookups hit and missed the cache.
// These are physical probe counters: under speculative evaluation they
// depend on scheduling (the driver exposes commit-path logical counters
// that do not).
func (in *Instance) PlanCacheStats() (hits, misses int64) {
	return in.planHits.Load(), in.planMisses.Load()
}

// planFor returns the cached placement outcome for key, planning (and
// caching) it on a miss.
func (in *Instance) planFor(key string, mp *mapping.Mapping) (*PlacementPlan, error) {
	sh := &in.plans[shardIndex(key, planShardCount)]
	sh.mu.RLock()
	e, ok := sh.m[key]
	sh.mu.RUnlock()
	if ok {
		in.planHits.Add(1)
		return e.plan, e.err
	}
	in.planMisses.Add(1)
	// Plan outside the lock: planning is pure, so a racing duplicate
	// computes an identical entry and the second store is harmless.
	plan, err := planPlacement(in.topo, mp)
	e = planEntry{plan: plan, err: err}
	sh.mu.Lock()
	if len(sh.m) >= planCacheLimit/planShardCount {
		sh.m = make(map[string]planEntry)
	}
	sh.m[key] = e
	sh.mu.Unlock()
	return e.plan, e.err
}
