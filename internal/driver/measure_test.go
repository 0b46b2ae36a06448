package driver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"automap/internal/mapping"
	"automap/internal/sim"
)

// orderRunner is a fake simRunner that logs the order in which repeats
// start and finish. Repeat 0 lingers so that any repeat started
// alongside it is caught; odd repeats fail so error order is visible.
type orderRunner struct {
	seeds map[uint64]int // noise seed -> repeat index

	mu        sync.Mutex
	zeroDone  bool
	early     []int // repeats that started before repeat 0 returned
	inFlight  int
	maxFlight int
	calls     int
}

func (r *orderRunner) RunKeyed(key string, mp *mapping.Mapping, cfg sim.Config) (*sim.Result, error) {
	i, ok := r.seeds[cfg.Seed]
	if !ok {
		return nil, fmt.Errorf("seed %#x is no runSeed of the base", cfg.Seed)
	}
	r.mu.Lock()
	r.calls++
	if i != 0 && !r.zeroDone {
		r.early = append(r.early, i)
	}
	r.inFlight++
	r.maxFlight = max(r.maxFlight, r.inFlight)
	r.mu.Unlock()

	if i == 0 {
		time.Sleep(20 * time.Millisecond)
	} else {
		time.Sleep(time.Millisecond)
	}

	r.mu.Lock()
	r.inFlight--
	if i == 0 {
		r.zeroDone = true
	}
	r.mu.Unlock()
	if i%2 == 1 {
		return nil, errors.New(fmt.Sprint(i))
	}
	return &sim.Result{MakespanSec: float64(i)}, nil
}

// TestMeasureRunsFirstRepeatAlone pins the parallel measurement order:
// repeat 0 (which records the candidate's schedule) returns before any
// other repeat starts, the rest run concurrently within the semaphore,
// and results, errors and seeds line up with repeat indices.
func TestMeasureRunsFirstRepeatAlone(t *testing.T) {
	const repeats, base = 7, uint64(0xC0FFEE)
	r := &orderRunner{seeds: make(map[uint64]int)}
	for i := 0; i < repeats; i++ {
		r.seeds[runSeed(base, i)] = i
	}
	sem := make(chan struct{}, 2)
	results, errs := measureRuns(r, "k", nil, repeats, 0.04, base, sem)

	if len(r.early) > 0 {
		t.Errorf("repeats %v started before repeat 0 returned", r.early)
	}
	if r.calls != repeats {
		t.Errorf("%d runs, want %d", r.calls, repeats)
	}
	if r.maxFlight > cap(sem) {
		t.Errorf("%d runs in flight, semaphore allows %d", r.maxFlight, cap(sem))
	}
	if len(results) != repeats || len(errs) != repeats {
		t.Fatalf("got %d results, %d errors; want %d each", len(results), len(errs), repeats)
	}
	for i := 0; i < repeats; i++ {
		if i%2 == 1 {
			if errs[i] == nil || errs[i].Error() != fmt.Sprint(i) || results[i] != nil {
				t.Errorf("repeat %d: result %v, error %v; want error %d", i, results[i], errs[i], i)
			}
			continue
		}
		if errs[i] != nil || results[i] == nil || results[i].MakespanSec != float64(i) {
			t.Errorf("repeat %d: result %v, error %v; want makespan %d", i, results[i], errs[i], i)
		}
	}
}
