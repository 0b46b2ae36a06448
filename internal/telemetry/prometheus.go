// Prometheus text exposition for the metrics registry: the one format
// every metric leaves the process in. The daemon's /metrics endpoint
// serves it so a stock Prometheus scraper works against mapd unmodified,
// `automap search -metrics` writes it, and ReadPrometheus parses it back
// for the in-repo readers (mapstat, the smoke and telemetry checks).
//
// Name mapping: dotted registry names become underscore-separated
// Prometheus names ("serve.request.latency_sec" →
// "serve_request_latency_sec"); counters gain the conventional _total
// suffix. A registered name may carry a literal label set —
// `build_info{version="dev"}` — which is split off the base name and
// re-attached to each sample line, letting stdlib-only callers attach
// static labels without a label API.

package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// PrometheusContentType is the Content-Type for the text exposition
// format, per the Prometheus exposition format spec.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// promName sanitizes a dotted registry name into a valid Prometheus
// metric name and splits off an embedded {label="value"} set, if any.
func promName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name, labels = name[:i], name[i:]
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), labels
}

// mergeLabels combines a metric's static label set with an extra label
// (the histogram `le`), producing the {...} suffix for one sample line.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		if extra == "" {
			return ""
		}
		return "{" + extra + "}"
	}
	if extra == "" {
		return labels
	}
	return strings.TrimSuffix(labels, "}") + "," + extra + "}"
}

// WritePrometheus dumps every metric in Prometheus text exposition
// format, sorted by metric name for determinism. Histograms are
// rendered with cumulative buckets (per the format: each le bucket
// counts all observations ≤ its bound, ending at le="+Inf") plus _sum
// and _count series. Returns nil without writing on a nil registry.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.WritePrometheusLabeled(w, "")
}

// WritePrometheusLabeled is WritePrometheus with one extra label pair —
// `replica="r1"`, say — merged into every sample's label set. A fleet
// replica uses it to stamp its name onto the shared serve metric names,
// so a scraper aggregating several replicas can still tell them apart
// without the registry itself knowing about labels.
func (r *Registry) WritePrometheusLabeled(w io.Writer, extra string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	// Each chunk is one metric family: a # TYPE line plus its samples.
	// Sorting chunks by family name gives a stable, diffable page.
	type chunk struct {
		family string
		text   string
	}
	chunks := make([]chunk, 0, len(r.counts)+len(r.gauges)+len(r.hists))

	//mapvet:unordered chunks are sorted by family name before writing
	for name, c := range r.counts {
		base, labels := promName(name)
		labels = mergeLabels(labels, extra)
		if !strings.HasSuffix(base, "_total") {
			base += "_total"
		}
		chunks = append(chunks, chunk{base, fmt.Sprintf(
			"# TYPE %s counter\n%s%s %d\n", base, base, labels, c.Value())})
	}
	//mapvet:unordered chunks are sorted by family name before writing
	for name, g := range r.gauges {
		base, labels := promName(name)
		labels = mergeLabels(labels, extra)
		chunks = append(chunks, chunk{base, fmt.Sprintf(
			"# TYPE %s gauge\n%s%s %s\n", base, base, labels, formatFloat(g.Value()))})
	}
	//mapvet:unordered chunks are sorted by family name before writing
	for name, h := range r.hists {
		base, labels := promName(name)
		labels = mergeLabels(labels, extra)
		var b strings.Builder
		fmt.Fprintf(&b, "# TYPE %s histogram\n", base)
		h.mu.Lock()
		cum := int64(0)
		for i, bound := range h.bounds {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket%s %d\n", base,
				mergeLabels(labels, fmt.Sprintf("le=%q", formatFloat(bound))), cum)
		}
		cum += h.counts[len(h.bounds)]
		fmt.Fprintf(&b, "%s_bucket%s %d\n", base, mergeLabels(labels, `le="+Inf"`), cum)
		fmt.Fprintf(&b, "%s_sum%s %s\n", base, labels, formatFloat(h.sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", base, labels, h.count)
		h.mu.Unlock()
		chunks = append(chunks, chunk{base, b.String()})
	}

	sort.Slice(chunks, func(i, j int) bool {
		if chunks[i].family != chunks[j].family {
			return chunks[i].family < chunks[j].family
		}
		return chunks[i].text < chunks[j].text
	})
	// Duplicate families (two dotted names sanitizing to one Prometheus
	// name, or the same family with different label sets) keep a single
	// # TYPE header.
	prev := ""
	for _, c := range chunks {
		text := c.text
		if c.family == prev {
			text = text[strings.IndexByte(text, '\n')+1:]
		}
		prev = c.family
		if _, err := io.WriteString(w, text); err != nil {
			return err
		}
	}
	return nil
}

// Merge folds every metric of other into r: counters add, histograms
// with matching bounds add bucket-wise (a histogram new to r is created
// with other's bounds), gauges are overwritten with other's value.
// Histograms whose bounds disagree are skipped — merging them would
// misattribute samples. The daemon uses this to aggregate each finished
// search's private registry (which must stay per-search so stored
// results remain deterministic) into the daemon-lifetime registry that
// /metrics serves.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	// Snapshot other under its own lock, then apply under r's: no two
	// registry locks are ever held together, so merging in either
	// direction (or concurrently) cannot deadlock.
	type histCopy struct {
		bounds []float64
		counts []int64
		sum    float64
		count  int64
	}
	other.mu.Lock()
	counts := make(map[string]int64, len(other.counts))
	//mapvet:unordered rekeying into a map; the caller sees a map, not an order
	for name, c := range other.counts {
		counts[name] = c.Value()
	}
	gauges := make(map[string]float64, len(other.gauges))
	//mapvet:unordered rekeying into a map; the caller sees a map, not an order
	for name, g := range other.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]histCopy, len(other.hists))
	//mapvet:unordered rekeying into a map; the caller sees a map, not an order
	for name, h := range other.hists {
		h.mu.Lock()
		hists[name] = histCopy{
			bounds: append([]float64(nil), h.bounds...),
			counts: append([]int64(nil), h.counts...),
			sum:    h.sum,
			count:  h.count,
		}
		h.mu.Unlock()
	}
	other.mu.Unlock()

	//mapvet:unordered counter addition is commutative; merge order is invisible
	for name, v := range counts {
		r.Counter(name).Add(v)
	}
	//mapvet:unordered gauge overwrite per distinct name; merge order is invisible
	for name, v := range gauges {
		r.Gauge(name).Set(v)
	}
	//mapvet:unordered bucket-wise addition is commutative; merge order is invisible
	for name, hc := range hists {
		h := r.Histogram(name, hc.bounds)
		h.mu.Lock()
		if len(h.bounds) == len(hc.bounds) && boundsEqual(h.bounds, hc.bounds) {
			for i, n := range hc.counts {
				h.counts[i] += n
			}
			h.sum += hc.sum
			h.count += hc.count
		}
		h.mu.Unlock()
	}
}

// boundsEqual reports whether two sorted bound slices are identical.
func boundsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Sample is one sample line of a text exposition.
type Sample struct {
	// Name is the series name as exposed: the family name, plus
	// _bucket, _sum or _count for a histogram's series.
	Name string
	// Labels is the raw {...} label set, "" when the line has none.
	Labels string
	Value  float64
}

// ReadPrometheus parses a text exposition as WritePrometheus writes it:
// each family's # TYPE line followed by that family's samples, in page
// order.
// A sample outside the family last declared, an unknown kind or an
// unparsable line is an error; other # comments are skipped.
func ReadPrometheus(r io.Reader) ([]Sample, error) {
	var out []Sample
	family, kind := "", ""
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if f := strings.Fields(text); len(f) == 4 && f[1] == "TYPE" {
				switch f[3] {
				case "counter", "gauge", "histogram":
				default:
					return nil, fmt.Errorf("line %d: unknown metric type %q", line, f[3])
				}
				family, kind = f[2], f[3]
			}
			continue
		}
		i := strings.LastIndexByte(text, ' ')
		if i < 0 {
			return nil, fmt.Errorf("line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(text[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", line, err)
		}
		name, labels := text[:i], ""
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name, labels = name[:j], name[j:]
		}
		if !inFamily(name, family, kind) {
			return nil, fmt.Errorf("line %d: sample %q outside a declared family", line, name)
		}
		out = append(out, Sample{Name: name, Labels: labels, Value: v})
	}
	return out, sc.Err()
}

// inFamily reports whether a series name belongs to the declared family:
// the family itself, or for a histogram one of its suffixed series.
func inFamily(name, family, kind string) bool {
	if kind != "histogram" || !strings.HasPrefix(name, family) {
		return family != "" && name == family
	}
	switch name[len(family):] {
	case "_bucket", "_sum", "_count":
		return true
	}
	return false
}
