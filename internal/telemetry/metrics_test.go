package telemetry

import "testing"

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()

	c := r.Counter("search.eval.cache_hits")
	c.Add(2)
	r.Counter("search.eval.cache_hits").Add(3) // same instrument
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}

	g := r.Gauge("search.best_sec")
	g.Set(1.5)
	g.Add(0.25)
	if g.Value() != 1.75 {
		t.Errorf("gauge = %g, want 1.75", g.Value())
	}

	h := r.Histogram("search.eval.mean_sec", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("histogram count = %d, want 5", h.Count())
	}
	if h.Sum() != 56.05 {
		t.Errorf("histogram sum = %g, want 56.05", h.Sum())
	}
}

func TestSnapshotFlattens(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(7)
	r.Gauge("c").Set(2.5)
	h := r.Histogram("d", []float64{1})
	h.Observe(0.5)
	h.Observe(2)

	snap := r.Snapshot()
	want := map[string]float64{"a.b": 7, "c": 2.5, "d.count": 2, "d.sum": 2.5}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("snapshot[%q] = %g, want %g", k, snap[k], v)
		}
	}
	if len(snap) != len(want) {
		t.Errorf("snapshot has %d entries, want %d: %v", len(snap), len(want), snap)
	}

	var nilReg *Registry
	if nilReg.Snapshot() != nil {
		t.Error("nil registry snapshot should be nil")
	}
}
