// The shared measurement path: every repeated-run protocol in the driver —
// candidate evaluation (7 repeats), final re-measurement (31 repeats), and
// baseline MeasureMapping — funnels through measureRuns, which measures all
// of a candidate's repeats in one simulator call (one schedule, one
// lane-wise fold over all seeds) with order-independent noise seeds. The
// driver measures one candidate at a time, on the search goroutine, as the
// paper's driver does (Section 3.3, Algorithm 1).
//
// Seed derivation: each run's seed is a hash of (base seed, repeat index).
// This replaced a sequential runSeed++ counter, whose seeds depended on how
// many runs had executed before — meaning the measurement of a mapping
// changed with suggestion order. With derived seeds a mapping's measurement
// is a pure function of (base seed, mapping), so a resumed search that
// replays recorded measurements and measures the rest reaches the same
// trajectory as an uninterrupted one.
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
