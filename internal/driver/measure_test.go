package driver

import (
	"errors"
	"testing"

	"automap/internal/mapping"
	"automap/internal/sim"
)

// repeatsRunner is a fake simRunner that records every RunRepeats call:
// the seeds it was given and how many semaphore slots were held while it
// ran. It returns err if set, else one result per seed whose makespan is
// the seed's index.
type repeatsRunner struct {
	sem   chan struct{}
	err   error
	seeds [][]uint64
	held  []int
}

func (r *repeatsRunner) RunRepeats(key string, mp *mapping.Mapping, sigma float64, seeds []uint64) ([]*sim.Result, error) {
	r.seeds = append(r.seeds, append([]uint64(nil), seeds...))
	r.held = append(r.held, len(r.sem))
	if r.err != nil {
		return nil, r.err
	}
	out := make([]*sim.Result, len(seeds))
	for i := range out {
		out[i] = &sim.Result{MakespanSec: float64(i)}
	}
	return out, nil
}

// TestMeasureRunsOneCall pins the measurement protocol: measureRuns makes
// exactly one RunRepeats call, holding one semaphore slot, with seeds
// runSeed(base, i) in repeat order; results come back in that order, and
// a runner error becomes every repeat's error.
func TestMeasureRunsOneCall(t *testing.T) {
	const repeats, base = 7, uint64(0xC0FFEE)
	for _, fail := range []error{nil, errors.New("oom")} {
		sem := make(chan struct{}, 4)
		r := &repeatsRunner{sem: sem, err: fail}
		results, errs := measureRuns(r, "k", nil, repeats, 0.04, base, sem)

		if len(r.seeds) != 1 {
			t.Fatalf("err %v: %d RunRepeats calls, want 1", fail, len(r.seeds))
		}
		if r.held[0] != 1 || len(sem) != 0 {
			t.Errorf("err %v: %d semaphore slots held during the call, %d after; want 1 and 0", fail, r.held[0], len(sem))
		}
		if len(r.seeds[0]) != repeats {
			t.Fatalf("err %v: %d seeds, want %d", fail, len(r.seeds[0]), repeats)
		}
		for i, seed := range r.seeds[0] {
			if seed != runSeed(base, i) {
				t.Errorf("err %v: seed %d is %#x, want runSeed(base, %d) = %#x", fail, i, seed, i, runSeed(base, i))
			}
		}
		if len(results) != repeats || len(errs) != repeats {
			t.Fatalf("err %v: got %d results, %d errors; want %d each", fail, len(results), len(errs), repeats)
		}
		for i := range repeats {
			if fail != nil {
				if errs[i] != fail || results[i] != nil {
					t.Errorf("repeat %d: result %v, error %v; want error %v", i, results[i], errs[i], fail)
				}
				continue
			}
			if errs[i] != nil || results[i] == nil || results[i].MakespanSec != float64(i) {
				t.Errorf("repeat %d: result %v, error %v; want makespan %d", i, results[i], errs[i], i)
			}
		}
	}
}
