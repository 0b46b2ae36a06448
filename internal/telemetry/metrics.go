// Metrics registry: counters, gauges, and fixed-bucket histograms keyed by
// dotted names ("search.eval.cache_hits", "sim.copies.network_bytes"),
// exposed in the Prometheus text format (prometheus.go).

package telemetry

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero method set
// is safe on a nil receiver, so instrumented code can hold pre-resolved
// (possibly nil) counters and call Add unconditionally: with no registry
// attached the call is a nil check and nothing else.
type Counter struct {
	n int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	atomic.AddInt64(&c.n, n)
}

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return atomic.LoadInt64(&c.n)
}

// Gauge is a float-valued metric that can be set or accumulated.
type Gauge struct {
	bits uint64 // math.Float64bits of the value
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	atomic.StoreUint64(&g.bits, math.Float64bits(v))
}

// Add accumulates v into the gauge. No-op on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := atomic.LoadUint64(&g.bits)
		next := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(&g.bits, old, next) {
			return
		}
	}
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(atomic.LoadUint64(&g.bits))
}

// Histogram counts observations into fixed buckets. Bounds are upper bucket
// limits in increasing order; an implicit +Inf bucket catches the rest.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64 // len(bounds)+1
	sum    float64
	count  int64
}

// Observe records one sample. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations; 0 on a nil receiver.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations; 0 on a nil receiver.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Registry holds the metric instruments of one search, keyed by dotted
// name. Registration is idempotent (same name returns the same instrument)
// and safe for concurrent use; the instruments themselves are atomic.
//
// The zero registry pointer is usable: all methods return nil instruments,
// whose operations are no-ops.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (later calls reuse the existing
// instrument regardless of bounds). Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		h = &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens every metric to a float64 by name: counters and gauges
// directly, histograms as name.count and name.sum. Returns nil on a nil
// registry.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counts)+len(r.gauges)+2*len(r.hists))
	//mapvet:unordered rekeying into a map; the caller sees a map, not an order
	for name, c := range r.counts {
		out[name] = float64(c.Value())
	}
	//mapvet:unordered rekeying into a map; the caller sees a map, not an order
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	//mapvet:unordered rekeying into a map; the caller sees a map, not an order
	for name, h := range r.hists {
		out[name+".count"] = float64(h.Count())
		out[name+".sum"] = h.Sum()
	}
	return out
}

// formatFloat renders v with the shortest round-trippable representation,
// keeping dumps compact and deterministic.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
