// The shared measurement path: every repeated-run protocol in the driver —
// candidate evaluation (7 repeats), final re-measurement (31 repeats), and
// baseline MeasureMapping — funnels through measureRuns, which executes the
// first repeat alone and the rest concurrently under a worker semaphore,
// with order-independent noise seeds.
//
// Seed derivation: each run's seed is a hash of (base seed, repeat index).
// This replaced a sequential runSeed++ counter, whose seeds depended on how
// many runs had executed before — meaning the measurement of a mapping
// changed with suggestion order, and concurrent or speculative evaluation
// would have perturbed results. With derived seeds a mapping's measurement
// is a pure function of (base seed, mapping), so repeats may run in any
// order and on any number of workers, speculative results are exactly the
// results a later sequential evaluation would produce, and the search
// trajectory is identical at every worker count.
//
// The seed deliberately does NOT include the mapping key: every candidate's
// repeat i experiences the same noise draw sequence (common random numbers,
// the standard variance-reduction protocol for comparing alternatives
// under simulated noise), and the simulator can memoize the per-seed noise
// tape across the thousands of candidate evaluations of a search instead
// of re-deriving log-normal draws for every run (see sim's noise tapes and
// DESIGN §14).

package driver

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"sync"

	"automap/internal/mapping"
	"automap/internal/sim"
)

// runSeed derives the noise seed of one simulation run from the search's
// base seed and the repeat index (FNV-1a).
func runSeed(base uint64, repeat int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], base)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(repeat))
	h.Write(b[:])
	return h.Sum64()
}

// resolveWorkers maps an Options.Workers value to the effective pool width:
// non-positive means GOMAXPROCS, and positive values are clamped to
// GOMAXPROCS. Simulations are pure CPU work, so workers beyond the
// scheduler's parallelism cannot add throughput — they only add context
// switches and, worse, wasted speculation: on a single-core host an
// unclamped `-workers 8` made every search SLOWER than `-workers 1`
// because eight prefetch goroutines took turns burning the one core on
// candidates that re-batching then threw away. The clamp makes
// `-workers N` mean "up to N", never "pretend you have N cores".
func resolveWorkers(w int) int {
	max := runtime.GOMAXPROCS(0)
	if w <= 0 || w > max {
		return max
	}
	return w
}

// simRunner is the simulator surface the measurement path needs: a keyed
// run. Satisfied by both *sim.Instance (full simulation with schedule
// fold) and *sim.DeltaInstance (incremental re-simulation against the
// search incumbent); both return bit-identical results for any input, so
// which one backs an evaluator never affects what is measured — only how
// fast.
type simRunner interface {
	RunKeyed(key string, mp *mapping.Mapping, cfg sim.Config) (*sim.Result, error)
}

// measureRuns executes `repeats` independent simulations of mp (whose
// canonical key is key) with seeds runSeed(base, i), bounded by the
// semaphore sem. Repeat 0 runs alone first: it records the key's schedule
// (full or delta path), so repeats 1..n-1 — run concurrently — only fold
// it instead of racing to record it again. Results and errors are returned
// in repeat order; both are deterministic regardless of scheduling. A
// non-positive repeat count returns empty slices.
func measureRuns(inst simRunner, key string, mp *mapping.Mapping, repeats int, noise float64, base uint64, sem chan struct{}) ([]*sim.Result, []error) {
	if repeats < 1 {
		return nil, nil
	}
	results := make([]*sim.Result, repeats)
	errs := make([]error, repeats)
	run := func(i int) {
		sem <- struct{}{}
		defer func() { <-sem }()
		results[i], errs[i] = inst.RunKeyed(key, mp, sim.Config{NoiseSigma: noise, Seed: runSeed(base, i)})
	}
	run(0)
	if cap(sem) <= 1 {
		// A single worker serializes everything anyway; skip the
		// goroutine machinery.
		for i := 1; i < repeats; i++ {
			run(i)
		}
		return results, errs
	}
	var wg sync.WaitGroup
	for i := 1; i < repeats; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(i)
		}(i)
	}
	wg.Wait()
	return results, errs
}
