// Package driver implements AutoMap's driver component (Figure 4 of the
// paper): it owns the profiles database, invokes a pluggable search
// algorithm to propose candidate mappings, coordinates with the runtime
// (here: the simulator) to execute and time them, and applies the paper's
// measurement protocol:
//
//   - during the search, each candidate mapping is executed 7 times and the
//     average selects the incumbent;
//   - as a final step, the top 5 mappings are executed 31 times each and
//     the mapping with the fastest average is reported (Section 5).
//
// Search time is accounted in simulated application-seconds — in the real
// system, CD and CCD spend 99% of search time executing candidates, so the
// cumulative execution time of measurements is the search clock. Algorithm
// bookkeeping (significant only for OpenTuner) is charged explicitly.
package driver

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"automap/internal/checkpoint"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/profile"
	"automap/internal/search"
	"automap/internal/sim"
	"automap/internal/stats"
	"automap/internal/taskir"
	"automap/internal/telemetry"
)

// Options configures the driver.
type Options struct {
	// Repeats is the number of runs averaged per candidate during the
	// search (paper: 7).
	Repeats int
	// FinalCandidates is how many of the best mappings are re-measured
	// at the end (paper: 5).
	FinalCandidates int
	// FinalRepeats is the number of runs for each finalist (paper: 31).
	FinalRepeats int
	// NoiseSigma is the run-to-run noise level of the simulated runtime.
	NoiseSigma float64
	// Seed drives all randomness (noise streams and algorithm
	// tie-breaking).
	Seed uint64
	// Tunable optionally restricts the search to a subset of tasks
	// (e.g. only the low-fidelity tasks of Maestro, Figure 5); nil means
	// all tasks.
	Tunable []taskir.TaskID
	// Objective maps the Summary of a measured run to the scalar the
	// search minimizes; nil minimizes execution time. Section 3.3: "while
	// in this work we optimize execution time, AutoMap is suitable for
	// minimizing other metrics (e.g., power consumption)".
	Objective func(*sim.Summary) float64
	// WarmDB optionally seeds the evaluator with a profiles database
	// from a previous search of the same program and machine (see
	// profile.DB.Save/LoadDB): previously measured mappings are
	// recognized without re-execution.
	WarmDB *profile.DB
	// PrePrune answers a candidate that cannot launch — it fails
	// validation or placement — before it is suggested: no simulation, no
	// database entry, and a checkCostSec charge instead of the failed
	// launch's. The search trajectory is unchanged, since the measurement
	// would fail the same candidate.
	PrePrune bool
	// Observer optionally receives search telemetry: the typed event
	// stream and the metrics registry (see internal/telemetry). The
	// evaluator folds its own counters (cache hits, failures, simulated
	// runs) and the simulator's aggregate copy/spill/energy counters
	// into the registry; the search algorithms emit the decision-level
	// events. Nil disables observation at zero cost.
	Observer *telemetry.Observer
	// Workers is ignored: the driver measures one candidate at a time, on
	// the search goroutine. The field stays only because
	// benchmark/searchbench.go sets it; ROADMAP item 2, the benchmark
	// change, deletes it.
	Workers int
	// WallMetrics optionally receives wall-clock operational telemetry,
	// kept out of the deterministic Observer registry. Nothing records
	// into it and no product code sets it: it stays only because
	// benchmark/searchbench.go sets it. ROADMAP item 2, the benchmark
	// change, deletes it unless item 1's layer timers record into it.
	WallMetrics *telemetry.Registry
	// CheckpointPath, when non-empty, makes the driver persist a search
	// snapshot (internal/checkpoint) atomically to this path: every
	// CheckpointEvery fresh measurements during the search, and once more
	// when the search phase ends — whether it converged, exhausted its
	// budget, or was cancelled.
	CheckpointPath string
	// CheckpointEvery is the number of fresh candidate measurements
	// between periodic checkpoint writes; <= 0 means the default (25).
	CheckpointEvery int
	// OnCheckpoint, when set, runs after every successful checkpoint
	// write (periodic and end-of-search). It is called on the search
	// goroutine with internal locks held, so it must return quickly —
	// the mapd fleet uses it to nudge an asynchronous replication
	// pusher, never to do I/O inline. It has no effect on the search
	// trajectory and is deliberately outside the snapshot fingerprint.
	OnCheckpoint func()
	// ResumeFrom restores a snapshot produced by an earlier run with
	// identical configuration. The search replays from the start —
	// committing the snapshot's recorded measurements instead of
	// re-simulating them — and continues fresh past the recorded prefix,
	// reaching a Report and telemetry stream byte-identical to an
	// uninterrupted run. The snapshot fingerprint
	// (algorithm, program, machine, seed, protocol, budget) is validated;
	// a mismatch fails the search rather than silently diverging.
	ResumeFrom *checkpoint.Snapshot
}

// defaultCheckpointEvery is the periodic checkpoint interval in fresh
// measurements when Options.CheckpointEvery is unset.
const defaultCheckpointEvery = 25

// TimeObjective minimizes end-to-end execution time (the default).
func TimeObjective(s *sim.Summary) float64 { return s.MakespanSec }

// EnergyObjective minimizes the estimated dynamic energy of the run.
func EnergyObjective(s *sim.Summary) float64 { return s.EnergyJoules }

// objective returns the configured objective or the default.
func (o Options) objective() func(*sim.Summary) float64 {
	if o.Objective != nil {
		return o.Objective
	}
	return TimeObjective
}

// DefaultOptions returns the paper's protocol parameters.
func DefaultOptions() Options {
	return Options{
		Repeats:         7,
		FinalCandidates: 5,
		FinalRepeats:    31,
		NoiseSigma:      0.04,
		Seed:            1,
	}
}

// Evaluator executes candidate mappings on the simulated runtime. It
// implements search.Evaluator.
//
// Evaluate measures one candidate at a time, commits all observable side
// effects (search clock, counters, database writes, telemetry), and must be
// called from one goroutine at a time — the search loop.
type Evaluator struct {
	M    *machine.Machine
	G    *taskir.Graph
	Opts Options

	DB *profile.DB
	// top retains the mappings the final phase can re-measure.
	top finalists

	model     *machine.Model
	searchSec float64
	evalSec   float64

	// inst amortizes simulator topology tables, placement plans, and
	// run scratch across every simulation of the search. delta wraps inst
	// with classification against the search incumbent (sim.DeltaInstance),
	// which feeds the attribution counters below; every measurement goes
	// through inst.
	inst  *sim.Instance
	delta *sim.DeltaInstance

	// Measurement scratch, reused by every candidate: the seeds and
	// Summaries of measureRuns, the run records toRuns fills, and the
	// objective times commitRuns hands the database (which copies them).
	scratch runScratch
	runs    []checkpoint.Run
	times   []float64

	// Commit-path attribution of evaluations (guarded by mu): how many
	// committed candidate measurements classified as bounded deltas
	// against the incumbent at their commit point, and how many did not.
	// A pure function of the commit sequence.
	incEvals int64
	fbEvals  int64

	// replay holds the measurements restored from Options.ResumeFrom,
	// keyed by mapping key. When the replayed search re-suggests a key,
	// the recorded runs are committed through the same path a fresh
	// measurement would take, reproducing the clock, counters, database,
	// and telemetry exactly; keys not in the map (past the recorded
	// prefix) are simulated as usual with their key-derived seeds.
	replay map[string][]checkpoint.Run
	// log records every committed evaluation in commit order when
	// Options.CheckpointPath is set; checkpoint snapshots serialize it.
	log []checkpoint.Eval

	// Checkpointing state, bound by bindSearch. tmpl carries the
	// fingerprint fields; sinceCkpt counts fresh measurements since the
	// last periodic write; ckptErr retains the first write failure
	// (checkpointing degrades, it never aborts the search).
	tmpl      checkpoint.Snapshot
	ckptPath  string
	ckptEvery int
	sinceCkpt int
	ckptErr   error
	eventSeq  func() int

	// mu guards the sequential-commit state above (top, counters,
	// clocks). It orders results; it is NEVER held across a simulation —
	// Evaluate measures unlocked and re-acquires only to commit, so metric
	// scrapes and clock reads stay responsive while candidates execute,
	// and misuse of the commit contract shows up under -race instead of
	// as silent corruption.
	mu sync.Mutex

	// Suggested counts Evaluate calls; Evaluated counts distinct
	// mappings actually measured (Section 5.3's accounting).
	Suggested int
	Evaluated int

	// Pre-pruning state (Options.PrePrune), touched only by Evaluate:
	// launchable caches each checked key's verdict, pruneChecked counts
	// fresh checks, and pruned counts the evaluations answered without a
	// launch, re-suggestions included.
	launchable   map[string]bool
	pruneChecked int
	pruned       int

	// noiseSeen is the deepest repeat index committed so far: the commit
	// path's logical model of the simulator's noise-tape cache (tape i
	// exists once any commit used repeat index i). Guarded by mu.
	noiseSeen int

	// Metric instruments, pre-resolved at construction so the per-call
	// cost with no observer is a nil check (nil instruments no-op).
	mCacheHits *telemetry.Counter
	mFailures  *telemetry.Counter
	mSimRuns   *telemetry.Counter
	mIncEvals  *telemetry.Counter
	mFbEvals   *telemetry.Counter
	// Logical cache counters, attributed on the sequential commit path —
	// a pure function of the commit sequence, so byte-identical across
	// runs and resume. They restate Repeats and the commit
	// count, and stay only because benchmark/expected.json pins them: its
	// digest hashes every metric of the report.
	mPlanHits    *telemetry.Counter
	mPlanMisses  *telemetry.Counter
	mNoiseHits   *telemetry.Counter
	mNoiseMisses *telemetry.Counter
	mCopies      *telemetry.Counter
	mCopyBytes   *telemetry.Counter
	mNetBytes    *telemetry.Counter
	mSpills      *telemetry.Counter
	// Pre-pruning counters, registered only with Options.PrePrune so that
	// a search without it reports no metric for them.
	mPruneChecks *telemetry.Counter
	mPruned      *telemetry.Counter
	gEnergy      *telemetry.Gauge
	gOverhead    *telemetry.Gauge
	hEvalSec     *telemetry.Histogram
}

// evalSecBuckets are the histogram bucket bounds for candidate mean
// execution times: the benchmark applications span milliseconds (stencil
// iterations) to hundreds of seconds (full searches).
var evalSecBuckets = []float64{0.001, 0.01, 0.1, 1, 10, 100, 1000}

// NewEvaluator returns an evaluator over (m, g).
func NewEvaluator(m *machine.Machine, g *taskir.Graph, opts Options) *Evaluator {
	db := opts.WarmDB
	if db == nil {
		db = profile.NewDB()
	}
	obs := opts.Observer
	var replay map[string][]checkpoint.Run
	if snap := opts.ResumeFrom; snap != nil {
		replay = make(map[string][]checkpoint.Run, len(snap.Evals))
		for _, ce := range snap.Evals {
			replay[ce.Key] = ce.Runs
		}
	}
	inst := sim.New(m, g)
	e := &Evaluator{
		M: m, G: g, Opts: opts,
		DB:     db,
		top:    finalists{n: opts.FinalCandidates},
		model:  m.Model(),
		inst:   inst,
		delta:  sim.NewDelta(inst),
		replay: replay,

		mCacheHits:   obs.Counter("search.eval.cache_hits"),
		mFailures:    obs.Counter("search.eval.failures"),
		mSimRuns:     obs.Counter("search.eval.sim_runs"),
		mIncEvals:    obs.Counter("sim.eval.incremental"),
		mFbEvals:     obs.Counter("sim.eval.fallback"),
		mPlanHits:    obs.Counter("sim.plan_cache.hits"),
		mPlanMisses:  obs.Counter("sim.plan_cache.misses"),
		mNoiseHits:   obs.Counter("sim.noise_tape.hits"),
		mNoiseMisses: obs.Counter("sim.noise_tape.misses"),
		mCopies:      obs.Counter("sim.copies.count"),
		mCopyBytes:   obs.Counter("sim.copies.bytes"),
		mNetBytes:    obs.Counter("sim.copies.network_bytes"),
		mSpills:      obs.Counter("sim.spills"),
		gEnergy:      obs.Gauge("sim.energy_joules"),
		gOverhead:    obs.Gauge("search.overhead_sec"),
		hEvalSec:     obs.Histogram("search.eval.mean_sec", evalSecBuckets),
	}
	if opts.PrePrune {
		e.launchable = make(map[string]bool)
		e.mPruneChecks = obs.Counter("search.eval.prune_checks")
		e.mPruned = obs.Counter("search.eval.pruned")
	}
	return e
}

// finalists is this run's top n committed mappings in the final phase's
// order (DB mean, then key), each a copy-on-write clone taken at its
// commit. The final phase re-measures the database's top n executable
// keys that have a mapping, and any key of this run among them is also
// among this run's top n, so retaining these n is exact. Failed and
// invalid candidates are never retained: the final phase skips them.
type finalists struct {
	n   int
	top []finalist // sorted, at most n
}

// finalist is one retained mapping.
type finalist struct {
	key  string
	mean float64
	mp   *mapping.Mapping
}

// before orders a ahead of b as the final phase does.
func (a *finalist) before(b *finalist) bool {
	if a.mean != b.mean {
		return a.mean < b.mean
	}
	return a.key < b.key
}

// offer retains mp under key if its mean ranks it among the top n,
// dropping the entry it displaces. The clone is copy-on-write, so the
// caller may go on mutating mp through its setters.
func (f *finalists) offer(key string, mean float64, mp *mapping.Mapping) {
	c := finalist{key: key, mean: mean}
	i := sort.Search(len(f.top), func(i int) bool { return c.before(&f.top[i]) })
	if i >= f.n {
		return
	}
	c.mp = mp.CloneCOW()
	if len(f.top) < f.n {
		f.top = append(f.top, finalist{})
	}
	copy(f.top[i+1:], f.top[i:])
	f.top[i] = c
}

// get returns the retained mapping of key.
func (f *finalists) get(key string) (*mapping.Mapping, bool) {
	for i := range f.top {
		if f.top[i].key == key {
			return f.top[i].mp, true
		}
	}
	return nil, false
}

// repeats returns the effective per-candidate repeat count.
func (e *Evaluator) repeats() int {
	if e.Opts.Repeats < 1 {
		return 1
	}
	return e.Opts.Repeats
}

// Evaluate measures mp with Opts.Repeats noisy runs (or returns the cached
// mean for repeated suggestions) and advances the search clock by the
// execution time spent. If the run is a checkpoint resume and mp's
// measurements were recorded, the recorded runs are committed instead of
// re-simulating. With Options.PrePrune, a candidate that cannot launch is
// answered first (see prune).
func (e *Evaluator) Evaluate(mp *mapping.Mapping) search.Evaluation {
	key := mp.Key()
	if e.Opts.PrePrune {
		if verdict, pruned := e.prune(key, mp); pruned {
			return verdict
		}
	}
	e.mu.Lock()
	e.Suggested++
	if s, ok := e.DB.Lookup(key); ok {
		e.mCacheHits.Add(1)
		e.mu.Unlock()
		return search.Evaluation{MeanSec: s.Mean(), Cached: true, Failed: s.Failed}
	}
	if err := mp.Validate(e.G, e.model); err != nil {
		// Invalid mappings are rejected without execution; a high
		// value is returned to the search. Validation is deterministic
		// and free, so these verdicts are not checkpointed — a resumed
		// search re-derives them.
		e.DB.RecordFailure(key)
		e.mFailures.Add(1)
		e.mu.Unlock()
		return search.Evaluation{MeanSec: inf(), Failed: true}
	}
	if runs, ok := e.replay[key]; ok {
		delete(e.replay, key)
		verdict := e.commitRuns(key, mp, runs)
		e.mu.Unlock()
		return verdict
	}
	// Measure with the commit lock RELEASED: the lock orders results, it
	// never serializes simulation. Evaluate remains single-goroutine (the
	// search loop), so dropping and re-acquiring cannot interleave
	// commits; it only keeps clock/metric readers and checkpoint writers
	// responsive while a candidate executes.
	e.mu.Unlock()
	sums, err := e.scratch.measureRuns(e.inst, key, mp, e.repeats(), e.Opts.NoiseSigma, e.Opts.Seed)
	e.mu.Lock()
	e.runs = toRuns(e.runs, sums, err, e.Opts.objective())
	verdict := e.commitRuns(key, mp, e.runs)
	// Only fresh measurements advance the periodic-checkpoint counter:
	// replayed commits re-cover ground an earlier snapshot already holds.
	e.maybeCheckpointLocked()
	e.mu.Unlock()
	return verdict
}

// checkCostSec is the simulated search time a fresh pre-pruning check
// charges: a placement plan costs microseconds of real time, and 10 ms keeps
// the accounting honest while staying two orders of magnitude below the
// 1-second failed launch it replaces.
const checkCostSec = 0.01

// prune reports whether mp cannot launch — it fails validation or its
// placement plan fails — and, if so, the verdict Evaluate returns for it.
// It runs ahead of the suggestion count and the database lookup, so a
// pruned candidate is never recorded or checkpointed; Report.Suggested
// adds the pruned count back. Verdicts are cached by key, and only a fresh
// check charges checkCostSec. The plan is the instance's last, outside
// e.mu, so the measurement of a launchable candidate, which follows at
// once, reuses it.
func (e *Evaluator) prune(key string, mp *mapping.Mapping) (search.Evaluation, bool) {
	ok, seen := e.launchable[key]
	if !seen {
		ok = mp.Validate(e.G, e.model) == nil
		if ok {
			_, err := e.inst.PlanPlacement(mp)
			ok = err == nil
		}
		e.launchable[key] = ok
		e.pruneChecked++
		e.mPruneChecks.Add(1)
		e.ChargeOverhead(checkCostSec)
	}
	if ok {
		return search.Evaluation{}, false
	}
	e.pruned++
	e.mPruned.Add(1)
	return search.Evaluation{MeanSec: inf(), Failed: true, Cached: seen, Pruned: true}, true
}

// toRuns normalizes measured Summaries to checkpoint run records, written
// over dst's array: the exact fields the commit path consumes, with the
// objective evaluated now so a replay after the fact does not need the
// Summaries. A measurement error fails every run.
func toRuns(dst []checkpoint.Run, sums []sim.Summary, err error, obj func(*sim.Summary) float64) []checkpoint.Run {
	runs := slices.Grow(dst[:0], len(sums))[:len(sums)]
	if err != nil {
		clear(runs)
		return runs // zero values: OK == false
	}
	for i := range sums {
		r := &sums[i]
		runs[i] = checkpoint.Run{
			OK:             true,
			MakespanSec:    r.MakespanSec,
			ObjSec:         obj(r),
			EnergyJoules:   r.EnergyJoules,
			NumCopies:      r.NumCopies,
			BytesCopied:    r.BytesCopied,
			BytesOnNetwork: r.BytesOnNetwork,
			Spills:         r.Spills,
		}
	}
	return runs
}

// commitRuns applies one candidate's per-repeat run records to the
// sequential-commit state: search clock, counters, metric instruments,
// profiles database, and the checkpoint log. It is the single commit path
// for fresh measurements and checkpoint replays, which is what makes a
// resumed search bit-identical to an uninterrupted one. runs is not kept:
// the checkpoint log takes a copy. Callers hold e.mu.
func (e *Evaluator) commitRuns(key string, mp *mapping.Mapping, runs []checkpoint.Run) search.Evaluation {
	// Attribute this evaluation to the incremental or the fallback
	// counter, as classified against the incumbent at the commit point.
	// The classification selects nothing (every candidate is measured in
	// full); it stays because benchmark/expected.json pins its totals.
	// Classification is pure and the commit sequence (including the
	// SetDeltaBase calls interleaved by the search) is deterministic, so
	// these counters are identical across runs and resume.
	if e.delta.Classify(key, mp) {
		e.incEvals++
		e.mIncEvals.Add(1)
	} else {
		e.fbEvals++
		e.mFbEvals.Add(1)
	}
	// Logical cache attribution, kept only for the benchmark's digest
	// (same discipline as the delta counters above): placement is a pure
	// function of the key, so the counters charge a committed
	// candidate's first repeat a miss and the rest hits
	// (RunRepeats physically looks the plan up once for all of them); the
	// noise stream is a pure function of the repeat index, so a repeat
	// index draws its tape the first time any committed candidate reaches
	// it (noiseSeen is that high-water mark) and replays it thereafter.
	if n := len(runs); n > 0 {
		e.mPlanMisses.Add(1)
		e.mPlanHits.Add(int64(n - 1))
	}
	if e.Opts.NoiseSigma > 0 {
		nOK := 0
		for _, r := range runs {
			if r.OK {
				nOK++
			}
		}
		miss := nOK - e.noiseSeen
		if miss < 0 {
			miss = 0
		}
		e.mNoiseMisses.Add(int64(miss))
		e.mNoiseHits.Add(int64(nOK - miss))
		if nOK > e.noiseSeen {
			e.noiseSeen = nOK
		}
	}
	times := e.times[:0]
	var spent float64
	failed := false
	for _, r := range runs {
		if !r.OK {
			failed = true
			continue
		}
		times = append(times, r.ObjSec)
		spent += r.MakespanSec
	}
	e.times = times
	// Only checkpoint writes read the log. Gate on the option, not on
	// ckptPath, which bindSearch sets only later.
	if e.Opts.CheckpointPath != "" {
		e.log = append(e.log, checkpoint.Eval{Key: key, Runs: slices.Clone(runs)})
	}
	if failed {
		// Out-of-memory mappings fail at startup. Charge the simulated
		// time actually spent before the failure was detected — the
		// makespans of sibling repeats that did complete — plus a 1.0s
		// token for the failed launch itself. (Placement failure is
		// noise-independent today, so all repeats fail together and the
		// charge reduces to the token; the rule matters once failure
		// can depend on the run.)
		e.searchSec += spent + 1.0
		e.evalSec += spent + 1.0
		e.DB.RecordFailure(key)
		e.mFailures.Add(1)
		return search.Evaluation{MeanSec: inf(), Failed: true}
	}
	// The search clock always advances by application wall time: the
	// search executes the application regardless of the objective.
	e.searchSec += spent
	e.evalSec += spent
	for _, r := range runs {
		// Fold the simulator's aggregate data-movement counters into
		// the metrics registry (nil-safe no-ops without an observer).
		e.mSimRuns.Add(1)
		e.mCopies.Add(int64(r.NumCopies))
		e.mCopyBytes.Add(r.BytesCopied)
		e.mNetBytes.Add(r.BytesOnNetwork)
		e.mSpills.Add(int64(r.Spills))
		e.gEnergy.Add(r.EnergyJoules)
	}
	e.DB.Record(key, times)
	e.Evaluated++
	s, _ := e.DB.Lookup(key)
	e.top.offer(key, s.Mean(), mp)
	e.hEvalSec.Observe(s.Mean())
	return search.Evaluation{MeanSec: s.Mean()}
}

// bindSearch attaches the per-search checkpointing context: the snapshot
// fingerprint template and the observer's event-sequence reader.
// SearchFromSpace calls it once before handing the evaluator to the
// algorithm.
func (e *Evaluator) bindSearch(tmpl checkpoint.Snapshot, eventSeq func() int) {
	e.tmpl = tmpl
	e.eventSeq = eventSeq
	e.ckptPath = e.Opts.CheckpointPath
	e.ckptEvery = e.Opts.CheckpointEvery
	if e.ckptEvery <= 0 {
		e.ckptEvery = defaultCheckpointEvery
	}
}

// maybeCheckpointLocked writes a periodic snapshot every ckptEvery fresh
// measurements. Write failures are retained (see CheckpointErr), not
// propagated: losing checkpoint durability must not kill a healthy search.
func (e *Evaluator) maybeCheckpointLocked() {
	if e.ckptPath == "" {
		return
	}
	e.sinceCkpt++
	if e.sinceCkpt < e.ckptEvery {
		return
	}
	e.sinceCkpt = 0
	if err := e.writeCheckpointLocked(); err != nil && e.ckptErr == nil {
		e.ckptErr = err
	}
}

// writeCheckpointLocked snapshots the committed-evaluation log and current
// counters and saves them atomically. Callers hold e.mu.
func (e *Evaluator) writeCheckpointLocked() error {
	snap := e.tmpl
	if e.eventSeq != nil {
		snap.EventSeq = e.eventSeq()
	}
	snap.SearchSec = e.searchSec
	snap.Suggested = e.Suggested
	snap.Evaluated = e.Evaluated
	snap.Evals = append([]checkpoint.Eval(nil), e.log...)
	if err := snap.Save(e.ckptPath); err != nil {
		return err
	}
	if e.Opts.OnCheckpoint != nil {
		e.Opts.OnCheckpoint()
	}
	return nil
}

// WriteCheckpoint persists the current search state to
// Options.CheckpointPath (a no-op without one). The driver calls it when
// the search phase ends so a cancelled run always leaves a final,
// up-to-date snapshot behind.
func (e *Evaluator) WriteCheckpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.ckptPath == "" {
		return nil
	}
	return e.writeCheckpointLocked()
}

// CheckpointErr returns the first periodic-checkpoint write failure, if
// any.
func (e *Evaluator) CheckpointErr() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ckptErr
}

// Prefetch ignores the announced candidates: the driver measures one
// candidate at a time, in Evaluate. CCD still calls it, and benchmark/
// trace.go type-asserts the evaluator to search.BatchEvaluator; ROADMAP
// item 2, the benchmark change, deletes it with CCD's call.
func (e *Evaluator) Prefetch([]*mapping.Mapping) {}

// SearchTimeSec returns the simulated search time consumed so far.
func (e *Evaluator) SearchTimeSec() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.searchSec
}

// EvalTimeSec returns the portion of search time spent executing candidate
// mappings (as opposed to algorithm bookkeeping).
func (e *Evaluator) EvalTimeSec() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evalSec
}

// ChargeOverhead adds algorithm bookkeeping time to the search clock.
func (e *Evaluator) ChargeOverhead(sec float64) {
	e.mu.Lock()
	e.searchSec += sec
	e.mu.Unlock()
	e.gOverhead.Add(sec)
}

// Mapping returns the retained mapping for a database key: one of this
// run's top FinalCandidates committed mappings (see finalists).
func (e *Evaluator) Mapping(key string) (*mapping.Mapping, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.top.get(key)
}

// SetDeltaBase declares mp the incumbent that subsequent candidate
// evaluations are classified against (search.DeltaEvaluator). Search
// algorithms call it on every accepted improvement, from the goroutine
// that calls Evaluate.
func (e *Evaluator) SetDeltaBase(mp *mapping.Mapping) { e.delta.SetBase(mp) }

// DeltaEvalStats returns the commit-path attribution counters: how many
// committed evaluations classified as bounded deltas against the
// incumbent, and how many did not.
func (e *Evaluator) DeltaEvalStats() (incremental, fallback int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.incEvals, e.fbEvals
}

func inf() float64 { return math.Inf(1) }

// Report is the outcome of a full driver search.
type Report struct {
	Algorithm string
	// Best is the winning mapping after final re-measurement.
	Best *mapping.Mapping
	// FinalSec is the winning mapping's average over FinalRepeats runs.
	FinalSec float64
	// SearchBestSec is the best mean observed during the search phase.
	SearchBestSec float64
	// SearchSec is the total simulated search time.
	SearchSec float64
	// EvalSec is the portion of SearchSec spent executing candidates.
	EvalSec float64
	// Suggested/Evaluated are the Section 5.3 counters.
	Suggested int
	Evaluated int
	// Pruned counts the evaluations pre-pruning answered without a
	// launch, and PruneChecked its fresh checks (both zero unless
	// Options.PrePrune). Suggested includes Pruned.
	Pruned       int
	PruneChecked int
	// StopReason records why the search phase ended (time budget,
	// suggestion budget, or converged).
	StopReason search.StopReason
	// Trace is the best-so-far trajectory (Figure 9).
	Trace []search.TracePoint
	// Metrics is the final snapshot of the telemetry metrics registry
	// (nil unless Options.Observer carries one). Histograms appear
	// flattened as name.count / name.sum.
	Metrics map[string]float64
	// StartSec is the starting mapping's objective over the final
	// measurement protocol (when it executes), and Significance the
	// Welch's t-test verdict of Best against it — the statistically
	// honest version of "AutoMap is X times faster".
	StartSec     float64
	Significance stats.Comparison
	// CheckpointErr is the first checkpoint-write failure, if any.
	// Checkpointing degrades rather than aborting the search, so the
	// report still carries the result; callers that rely on resumability
	// should surface this.
	CheckpointErr error
}

// Interrupted reports whether the search phase was cancelled (deadline or
// interrupt) before completing. An interrupted report carries the search
// phase results (SearchBestSec, counters, trace) but no final
// re-measurement: Best is nil. Resume from the checkpoint to finish.
func (r *Report) Interrupted() bool { return r.StopReason.Stopped() }

// Search profiles the program, runs the given algorithm within budget, then
// re-measures the top FinalCandidates mappings FinalRepeats times each and
// returns the overall report.
func Search(m *machine.Machine, g *taskir.Graph, alg search.Algorithm, opts Options, budget search.Budget) (*Report, error) {
	return SearchFromSpace(m, g, nil, alg, opts, budget)
}

// SnapshotTemplate returns the checkpoint fingerprint the driver binds to
// a search over (m, g) with these options and budget: the snapshot fields
// a resume validates, with no measurements recorded yet. opts.Seed must be
// the user-facing seed (the one passed to Search). Callers outside the
// driver — the mapd daemon's result store — use the template's Fingerprint
// to key searches: two requests with equal templates are, by the resume
// validation contract, the same search.
func SnapshotTemplate(alg search.Algorithm, g *taskir.Graph, m *machine.Machine, opts Options, budget search.Budget) checkpoint.Snapshot {
	return checkpoint.Snapshot{
		Version:    checkpoint.Version,
		Algorithm:  alg.Name(),
		Program:    g.Name,
		Machine:    m.Name,
		Seed:       opts.Seed,
		Repeats:    opts.Repeats,
		NoiseSigma: opts.NoiseSigma,
		PrePrune:   opts.PrePrune,
		Budget:     checkpoint.BudgetInfo{MaxSearchSec: budget.MaxSearchSec, MaxSuggestions: budget.MaxSuggestions},
	}
}

// SearchFromSpace is Search with a pre-computed search-space file (the
// paper's usage model, Section 3.3: "the input is a file containing the
// search space ... generated automatically by running and profiling the
// application once"). Passing a nil space profiles the application first.
func SearchFromSpace(m *machine.Machine, g *taskir.Graph, sp *profile.Space, alg search.Algorithm, opts Options, budget search.Budget) (*Report, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("invalid program: %w", err)
	}
	md := m.Model()
	start := mapping.Default(g, md)
	tmpl := SnapshotTemplate(alg, g, m, opts, budget)

	// Profiling run (Section 3.3): generates the search-space
	// representation from one execution of the application.
	userSeed := opts.Seed
	opts.Seed ^= 0x9e37
	if sp == nil {
		var err error
		sp, err = profile.Extract(m, g, start, sim.Config{NoiseSigma: opts.NoiseSigma, Seed: opts.Seed})
		if err != nil {
			// The starting mapping may not fit (memory-constrained
			// experiments); profile with an all-fallback start.
			start = safestStart(g, md)
			sp, err = profile.Extract(m, g, start, sim.Config{NoiseSigma: opts.NoiseSigma, Seed: opts.Seed})
			if err != nil {
				return nil, fmt.Errorf("no executable starting mapping: %w", err)
			}
		}
	} else {
		if len(sp.Tasks) != len(g.Tasks) {
			return nil, fmt.Errorf("space file describes %d tasks, program has %d", len(sp.Tasks), len(g.Tasks))
		}
		// A provided space says nothing about whether the default
		// start executes; plan its placement and fall back like the
		// profiler does.
		if _, err := sim.PlanPlacement(m, g, start); err != nil {
			start = safestStart(g, md)
		}
	}

	// Resuming: the snapshot must describe this exact search — same
	// algorithm, inputs, seed, protocol, and budget — or the replayed
	// prefix would silently diverge from what the interrupted run did.
	if snap := opts.ResumeFrom; snap != nil {
		if err := snap.Validate(tmpl.Algorithm, tmpl.Program, tmpl.Machine, userSeed, tmpl.Repeats, tmpl.NoiseSigma, tmpl.PrePrune, tmpl.Budget); err != nil {
			return nil, fmt.Errorf("cannot resume: %w", err)
		}
	}

	ev := NewEvaluator(m, g, opts)
	ev.bindSearch(tmpl, opts.Observer.EventSeq)
	prob := &search.Problem{
		Graph:    g,
		Model:    md,
		Space:    sp,
		Overlap:  overlap.Build(g),
		Start:    start,
		Tunable:  opts.Tunable,
		Seed:     opts.Seed,
		Observer: opts.Observer,
	}
	obs := opts.Observer
	if obs.Enabled() {
		obs.Emit(telemetry.SearchStarted{
			Algorithm: alg.Name(), Program: g.Name, Machine: m.Name,
			Tasks: len(g.Tasks), Collections: len(g.Collections),
			Seed: userSeed,
		})
	}
	// Span tree rooted at the whole search, all on the simulated search
	// clock (never wall time): the tree is part of the deterministic
	// stream, byte-identical across runs and checkpoint/resume.
	// An interrupted run leaves its spans open; the resumed run, replaying
	// the same trajectory, closes them at the positions the uninterrupted
	// run would have.
	rootSpan := obs.StartSpan(0, "search", alg.Name()+" "+g.Name+"@"+m.Name, 0)
	searchSpan := obs.StartSpan(rootSpan, "search_phase", "", 0)
	prob.Span = searchSpan
	out := alg.Search(prob, ev, budget)

	// A cancellation that lands after the algorithm's last budget check
	// still counts: the user asked the run to stop, so skip the final
	// re-measurement phase and leave a checkpoint instead.
	stopReason := out.StopReason
	if !stopReason.Stopped() {
		if r := budget.ContextStop(); r != "" {
			stopReason = r
		}
	}

	rep := &Report{
		Algorithm:     alg.Name(),
		SearchBestSec: out.BestSec,
		SearchSec:     ev.SearchTimeSec(),
		EvalSec:       ev.EvalTimeSec(),
		Suggested:     ev.Suggested + ev.pruned,
		Evaluated:     ev.Evaluated,
		Pruned:        ev.pruned,
		PruneChecked:  ev.pruneChecked,
		StopReason:    stopReason,
		Trace:         out.Trace,
	}
	// The end-of-search checkpoint is written before the SearchFinished
	// event in every outcome, so a snapshot's EventSeq never includes it
	// and resuming a completed search replays cleanly into the final
	// phase.
	rep.CheckpointErr = ev.CheckpointErr()
	if opts.CheckpointPath != "" {
		if err := ev.WriteCheckpoint(); err != nil && rep.CheckpointErr == nil {
			rep.CheckpointErr = err
		}
	}
	if obs != nil && obs.Metrics != nil {
		obs.Gauge("search.best_sec").Set(rep.SearchBestSec)
		obs.Gauge("search.search_sec").Set(rep.SearchSec)
		obs.Gauge("search.eval_sec").Set(rep.EvalSec)
	}
	if stopReason.Stopped() {
		// Interrupted: no SearchFinished event (the resumed run emits it
		// at the position the uninterrupted run would have) and no final
		// phase. The report carries the search-phase results; Best is
		// nil.
		if obs != nil && obs.Metrics != nil {
			rep.Metrics = obs.Metrics.Snapshot()
		}
		return rep, nil
	}
	obs.EndSpan(searchSpan, rep.SearchSec)
	if obs.Enabled() {
		bestSec := out.BestSec
		if math.IsInf(bestSec, 1) {
			bestSec = 0
		}
		obs.Emit(telemetry.SearchFinished{
			StopReason: string(out.StopReason), BestSec: bestSec,
			SearchSec: rep.SearchSec, EvalSec: rep.EvalSec,
			Suggested: rep.Suggested, Evaluated: rep.Evaluated,
		})
	}

	// Final step: re-measure the top candidates.
	type cand struct {
		key  string
		mean float64
	}
	var cands []cand
	for _, key := range ev.DB.Keys() {
		s, _ := ev.DB.Lookup(key)
		if s.Failed {
			continue
		}
		cands = append(cands, cand{key: key, mean: s.Mean()})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].mean != cands[j].mean {
			return cands[i].mean < cands[j].mean
		}
		return cands[i].key < cands[j].key
	})
	n := opts.FinalCandidates
	if n > len(cands) {
		n = len(cands)
	}
	bestFinal := inf()
	var bestMap *mapping.Mapping
	var bestTimes []float64
	obj := opts.objective()
	finalBase := opts.Seed ^ 0xf17a
	// finalSec accumulates the simulated cost of the final re-measurement
	// phase — the virtual clock the final_phase span is stamped with. Like
	// the search clock it sums application makespans, including the runs a
	// failed finalist completed before failing.
	var finalSec float64
	finalMeasure := func(mp *mapping.Mapping) ([]float64, bool) {
		sums, err := ev.scratch.measureRuns(ev.inst, mp.Key(), mp, opts.FinalRepeats, opts.NoiseSigma, finalBase)
		if err != nil {
			return nil, false
		}
		times := make([]float64, len(sums))
		for i := range sums {
			finalSec += sums[i].MakespanSec
			times[i] = obj(&sums[i])
		}
		return times, len(times) > 0
	}
	finalSpan := obs.StartSpan(rootSpan, "final_phase",
		fmt.Sprintf("top %d x %d repeats", n, opts.FinalRepeats), rep.SearchSec)
	for _, c := range cands[:n] {
		mp, have := ev.Mapping(c.key)
		if !have {
			// Known only from a warm-started database; the mapping
			// object was never materialized this run.
			continue
		}
		times, ok := finalMeasure(mp)
		if !ok {
			continue
		}
		mean := stats.Mean(times)
		if mean < bestFinal {
			bestFinal = mean
			bestMap = mp
			bestTimes = times
		}
	}
	if bestMap == nil {
		return nil, fmt.Errorf("search found no executable mapping for %s on %s", g.Name, m.Name)
	}
	rep.Best = bestMap
	rep.FinalSec = bestFinal
	// Statistical verdict of the winner against the starting mapping.
	if startTimes, ok := finalMeasure(start); ok && len(startTimes) >= 2 && len(bestTimes) >= 2 {
		rep.StartSec = stats.Mean(startTimes)
		rep.Significance = stats.Compare(startTimes, bestTimes)
	}
	obs.EndSpan(finalSpan, rep.SearchSec+finalSec)
	obs.EndSpan(rootSpan, rep.SearchSec+finalSec)
	// Embed the final metrics snapshot so callers can persist or assert
	// on it without holding the registry themselves.
	if obs != nil && obs.Metrics != nil {
		obs.Gauge("driver.final_sec").Set(rep.FinalSec)
		rep.Metrics = obs.Metrics.Snapshot()
	}
	return rep, nil
}

// MeasureMapping runs mp `repeats` times with distinct seeds and returns
// the average execution time. It is the protocol used for baseline mappers
// when comparing against AutoMap. The repeats are measured in one
// simulator call (measureRuns) with index-derived seeds, so the result is
// a pure function of its arguments.
func MeasureMapping(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping, repeats int, noise float64, seed uint64) (float64, error) {
	if repeats < 1 {
		repeats = 1
	}
	var s runScratch
	sums, err := s.measureRuns(sim.New(m, g), mp.Key(), mp, repeats, noise, seed)
	if err != nil {
		return 0, err
	}
	var sum float64
	for i := range sums {
		sum += sums[i].MakespanSec
	}
	return sum / float64(repeats), nil
}

// safestStart builds a starting mapping that avoids capacity-limited
// memories: every task runs on CPU (when it has a CPU variant) with
// collections in System memory, falling back per the priority lists.
func safestStart(g *taskir.Graph, md *machine.Model) *mapping.Mapping {
	mp := mapping.Default(g, md)
	for _, t := range g.Tasks {
		if t.HasVariant(machine.CPU) && md.HasProcKind(machine.CPU) {
			mp.SetProc(t.ID, machine.CPU)
		}
		mp.RebuildPriorityLists(md, t.ID)
		for a := range t.Args {
			d := mp.Decision(t.ID)
			pref := machine.SysMem
			if !md.CanAccess(d.Proc, pref) {
				pref = machine.ZeroCopy
			}
			if md.CanAccess(d.Proc, pref) {
				mp.SetArgMem(md, t.ID, a, pref)
			}
		}
	}
	return mp
}
