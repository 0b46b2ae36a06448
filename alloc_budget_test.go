package automap_test

import (
	"runtime"
	"testing"

	"automap"
)

// searchAllocBudget bounds what one annealing search allocates: pennant
// 320x720 on one Shepard node at seed 1 with the paper's protocol, the
// search-anneal-pennant benchmark workload. It measured 2.04 MiB (Go
// 1.24, amd64). The search measures each candidate once and keeps only
// its finalists, so what it allocates is what it keeps plus its move
// construction; plans, measurement scratch and noise are recycled.
const searchAllocBudget = 3 << 20

// TestSearchAllocBudget pins searchAllocBudget by the allocator's byte
// count across one search. The race detector's instrumentation allocates
// on its own account, so the budget holds only without it.
func TestSearchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	m := automap.Shepard(1)
	g := buildApp(t, "pennant", "320x720", 1)
	opts := automap.DefaultOptions()
	opts.Seed = 1
	opts.Observer = &automap.Observer{Metrics: automap.NewMetricsRegistry()}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := automap.Search(m, g, automap.NewAnneal(), opts, automap.Budget{}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one annealing search allocated %.2f MiB", float64(got)/(1<<20))
	if got >= searchAllocBudget {
		t.Fatalf("one annealing search allocated %.2f MiB, budget %.2f MiB", float64(got)/(1<<20), float64(searchAllocBudget)/(1<<20))
	}
}
