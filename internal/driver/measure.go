// The shared measurement path: every repeated-run protocol in the driver —
// candidate evaluation (7 repeats), final re-measurement (31 repeats),
// Prefetch batch jobs, and baseline MeasureMapping — funnels through
// measureRuns, which measures all of a candidate's repeats in one
// simulator call (one schedule, one lane-wise fold over all seeds) with
// order-independent noise seeds. Parallelism comes from measuring
// different candidates at once, never from splitting one candidate's
// repeats: measureJobs runs at most `workers` goroutines and joins them
// before Prefetch returns, and Evaluate and the final phase measure on
// the search goroutine, so no more than `workers` calls ever run at once.
//
// Seed derivation: each run's seed is a hash of (base seed, repeat index).
// This replaced a sequential runSeed++ counter, whose seeds depended on how
// many runs had executed before — meaning the measurement of a mapping
// changed with suggestion order, and concurrent or speculative evaluation
// would have perturbed results. With derived seeds a mapping's measurement
// is a pure function of (base seed, mapping), so candidates may be measured
// in any order and on any number of workers, speculative results are exactly the
// results a later sequential evaluation would produce, and the search
// trajectory is identical at every worker count.
//
// The seed deliberately does NOT include the mapping key: every candidate's
// repeat i experiences the same noise draw sequence (common random numbers,
// the standard variance-reduction protocol for comparing alternatives
// under simulated noise), and the simulator can memoize the per-seed noise
// tapes across the thousands of candidate evaluations of a search: each
// seed's tape, and each lane block of 8, is drawn once per search (see
// sim's noise tapes and DESIGN §14).

package driver

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"

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

// measureRuns measures `repeats` simulations of mp (whose canonical key is
// key) with seeds runSeed(base, i), in one RunRepeats call, and returns
// their Summaries in repeat order. A simulation error (placement failure)
// fails every repeat: it is returned with zero Summaries. A non-positive
// repeat count returns nil.
func measureRuns(inst *sim.Instance, key string, mp *mapping.Mapping, repeats int, noise float64, base uint64) ([]sim.Summary, error) {
	if repeats < 1 {
		return nil, nil
	}
	seeds := make([]uint64, repeats)
	for i := range seeds {
		seeds[i] = runSeed(base, i)
	}
	sums := make([]sim.Summary, repeats)
	return sums, inst.RunRepeats(key, mp, noise, seeds, sums)
}
