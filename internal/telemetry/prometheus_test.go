package telemetry

import (
	"strings"
	"testing"
)

func TestPromName(t *testing.T) {
	cases := []struct {
		in, base, labels string
	}{
		{"serve.request.latency_sec", "serve_request_latency_sec", ""},
		{"simple", "simple", ""},
		{"9starts.with.digit", "_9starts_with_digit", ""},
		{`build_info{version="dev",goversion="go1.22"}`, "build_info", `{version="dev",goversion="go1.22"}`},
		{"odd-chars/here", "odd_chars_here", ""},
	}
	for _, c := range cases {
		base, labels := promName(c.in)
		if base != c.base || labels != c.labels {
			t.Errorf("promName(%q) = %q, %q; want %q, %q", c.in, base, labels, c.base, c.labels)
		}
	}
}

func TestMergeLabels(t *testing.T) {
	cases := []struct {
		labels, extra, want string
	}{
		{"", "", ""},
		{"", `le="0.5"`, `{le="0.5"}`},
		{`{a="b"}`, "", `{a="b"}`},
		{`{a="b"}`, `le="+Inf"`, `{a="b",le="+Inf"}`},
	}
	for _, c := range cases {
		if got := mergeLabels(c.labels, c.extra); got != c.want {
			t.Errorf("mergeLabels(%q, %q) = %q, want %q", c.labels, c.extra, got, c.want)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("search.suggested").Add(42)
	r.Gauge("search.best_sec").Set(1.5)
	r.Gauge(`build_info{version="v1",goversion="go0"}`).Set(1)
	h := r.Histogram("serve.request.latency_sec", []float64{0.1, 1, 10})
	h.Observe(0.05) // bucket le=0.1
	h.Observe(0.5)  // bucket le=1
	h.Observe(100)  // +Inf only

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()

	for _, w := range []string{
		"# TYPE search_suggested_total counter\nsearch_suggested_total 42\n",
		"# TYPE search_best_sec gauge\nsearch_best_sec 1.5\n",
		"# TYPE build_info gauge\nbuild_info{version=\"v1\",goversion=\"go0\"} 1\n",
		"# TYPE serve_request_latency_sec histogram\n",
		`serve_request_latency_sec_bucket{le="0.1"} 1`,
		`serve_request_latency_sec_bucket{le="1"} 2`,
		`serve_request_latency_sec_bucket{le="10"} 2`,
		`serve_request_latency_sec_bucket{le="+Inf"} 3`,
		"serve_request_latency_sec_count 3",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}

	// Deterministic: two renders are identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Error("two renders of the same registry differ")
	}

	// The page does not depend on registration or map iteration order.
	build := func(order []int) string {
		r := NewRegistry()
		steps := []func(){
			func() { r.Counter("z.last").Add(1) },
			func() { r.Counter("a.first").Add(2) },
			func() { r.Gauge("m.middle").Set(0.125) },
			func() { r.Histogram("h.buckets", []float64{0.1, 1}).Observe(0.5) },
		}
		for _, i := range order {
			steps[i]()
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	fwd, rev := build([]int{0, 1, 2, 3}), build([]int{3, 2, 1, 0})
	if fwd != rev {
		t.Fatalf("pages differ by registration order:\n%s\nvs\n%s", fwd, rev)
	}
	want := "# TYPE a_first_total counter\na_first_total 2\n" +
		"# TYPE h_buckets histogram\n" +
		"h_buckets_bucket{le=\"0.1\"} 0\nh_buckets_bucket{le=\"1\"} 1\nh_buckets_bucket{le=\"+Inf\"} 1\n" +
		"h_buckets_sum 0.5\nh_buckets_count 1\n" +
		"# TYPE m_middle gauge\nm_middle 0.125\n" +
		"# TYPE z_last_total counter\nz_last_total 1\n"
	if fwd != want {
		t.Errorf("page:\n%s\nwant:\n%s", fwd, want)
	}

	// Families sort by name and each # TYPE appears exactly once.
	if n := strings.Count(out, "# TYPE serve_request_latency_sec "); n != 1 {
		t.Errorf("%d TYPE lines for the histogram family, want 1", n)
	}
}

func TestWritePrometheusNil(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatalf("nil registry: %v", err)
	}
	if b.Len() != 0 {
		t.Errorf("nil registry wrote %q", b.String())
	}
	if err := r.WritePrometheusLabeled(&b, `replica="r0"`); err != nil || b.Len() != 0 {
		t.Errorf("nil registry labeled write: %v, wrote %q", err, b.String())
	}
}

// TestReadPrometheusRoundTrip: every sample WritePrometheus writes reads
// back with its series name, labels and value.
func TestReadPrometheusRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("search.suggested").Add(42)
	r.Gauge("search.best_sec").Set(1.5)
	r.Gauge(`driver.worker.busy_sec{worker="0"}`).Set(0.25)
	h := r.Histogram("serve.request.latency_sec", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(100)

	var b strings.Builder
	if err := r.WritePrometheusLabeled(&b, `replica="r1"`); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPrometheus(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ReadPrometheus: %v\n%s", err, b.String())
	}
	want := []Sample{
		{"driver_worker_busy_sec", `{worker="0",replica="r1"}`, 0.25},
		{"search_best_sec", `{replica="r1"}`, 1.5},
		{"search_suggested_total", `{replica="r1"}`, 42},
		{"serve_request_latency_sec_bucket", `{replica="r1",le="0.1"}`, 1},
		{"serve_request_latency_sec_bucket", `{replica="r1",le="1"}`, 1},
		{"serve_request_latency_sec_bucket", `{replica="r1",le="+Inf"}`, 2},
		{"serve_request_latency_sec_sum", `{replica="r1"}`, 100.05},
		{"serve_request_latency_sec_count", `{replica="r1"}`, 2},
	}
	if len(got) != len(want) {
		t.Fatalf("read %d samples, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadPrometheusRejectsMalformed(t *testing.T) {
	for _, page := range []string{
		"orphan 1\n",                   // no # TYPE family
		"# TYPE a gauge\nb 1\n",        // sample outside its family
		"# TYPE a gauge\na_sum 1\n",    // suffix on a non-histogram
		"# TYPE h histogram\nh 1\n",    // bare histogram series
		"# TYPE a summary\na 1\n",      // unknown kind
		"# TYPE a gauge\na\n",          // no value
		"# TYPE a gauge\na one\n",      // unparsable value
		"# TYPE h histogram\n_sum 1\n", // suffix without the family
	} {
		if got, err := ReadPrometheus(strings.NewReader(page)); err == nil {
			t.Errorf("ReadPrometheus(%q) = %+v, want an error", page, got)
		}
	}
}

func TestWritePrometheusDuplicateFamily(t *testing.T) {
	// Two dotted names that sanitize to the same Prometheus family must
	// share one # TYPE header.
	r := NewRegistry()
	r.Gauge("a.b").Set(1)
	r.Gauge("a_b").Set(2)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "# TYPE a_b gauge"); n != 1 {
		t.Errorf("%d TYPE headers for colliding family, want 1:\n%s", n, b.String())
	}
	if n := strings.Count(b.String(), "\na_b "); n+strings.Count(b.String(), "a_b 1") < 2 {
		t.Errorf("expected both samples present:\n%s", b.String())
	}
}

func TestRegistryMerge(t *testing.T) {
	a := NewRegistry()
	a.Counter("c").Add(1)
	a.Gauge("g").Set(10)
	a.Histogram("h", []float64{1, 2}).Observe(0.5)

	b := NewRegistry()
	b.Counter("c").Add(2)
	b.Counter("only_b").Add(7)
	b.Gauge("g").Set(99)
	hb := b.Histogram("h", []float64{1, 2})
	hb.Observe(1.5)
	hb.Observe(5)

	a.Merge(b)

	if got := a.Counter("c").Value(); got != 3 {
		t.Errorf("merged counter c = %d, want 3", got)
	}
	if got := a.Counter("only_b").Value(); got != 7 {
		t.Errorf("merged counter only_b = %d, want 7", got)
	}
	if got := a.Gauge("g").Value(); got != 99 {
		t.Errorf("merged gauge g = %v, want 99 (overwrite)", got)
	}
	h := a.Histogram("h", []float64{1, 2})
	if got := h.Count(); got != 3 {
		t.Errorf("merged histogram count = %d, want 3", got)
	}
	if got := h.Sum(); got != 7 {
		t.Errorf("merged histogram sum = %v, want 7", got)
	}
}

func TestRegistryMergeBoundsMismatch(t *testing.T) {
	a := NewRegistry()
	a.Histogram("h", []float64{1, 2}).Observe(0.5)
	b := NewRegistry()
	b.Histogram("h", []float64{10, 20}).Observe(15)
	a.Merge(b)
	// Mismatched bounds are skipped, not misattributed.
	if got := a.Histogram("h", []float64{1, 2}).Count(); got != 1 {
		t.Errorf("histogram with mismatched bounds merged anyway: count = %d, want 1", got)
	}
}

func TestRegistryMergeNil(t *testing.T) {
	var r *Registry
	r.Merge(NewRegistry()) // must not panic
	a := NewRegistry()
	a.Counter("c").Add(1)
	a.Merge(nil)
	if got := a.Counter("c").Value(); got != 1 {
		t.Errorf("merge(nil) changed the registry: c = %d", got)
	}
}

func TestBoundsEqual(t *testing.T) {
	if !boundsEqual([]float64{1, 2}, []float64{1, 2}) {
		t.Error("equal bounds reported unequal")
	}
	if boundsEqual([]float64{1, 2}, []float64{1, 3}) {
		t.Error("unequal bounds reported equal")
	}
}
