// Observability endpoint tests: Prometheus /metrics exposition, the
// serve-side span stream, and the makespan attribution endpoint.
package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"automap/internal/explain"
	"automap/internal/serve"
	"automap/internal/serve/store"
)

// TestMetricsPrometheusExposition checks the /metrics contract: proper
// content type, # TYPE headers, _total-suffixed counters, a cumulative
// request-latency histogram with at least 8 buckets, and the build_info
// gauge.
func TestMetricsPrometheusExposition(t *testing.T) {
	srv, err := serve.New(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := submit(t, ts.URL, quickRequest(3)).ID
	if sr := waitDone(t, ts.URL, id); sr.Status != store.StatusDone {
		t.Fatalf("search ended %s: %s", sr.Status, sr.Error)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q, want the Prometheus exposition type", ct)
	}

	var typeLines, latencyBuckets int
	var sawInf, sawBuildInfo, sawRequestsTotal, sawSearchMetrics bool
	var lastLe float64 = -1
	var lastCum int64 = -1
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# TYPE ") {
			typeLines++
			continue
		}
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("metric line %q is not <name> <value>", line)
		}
		switch {
		case strings.HasPrefix(line, "serve_requests_total "):
			sawRequestsTotal = true
		case strings.HasPrefix(line, "build_info{"):
			sawBuildInfo = true
			if !strings.Contains(line, `version="`) || !strings.Contains(line, `goversion="go`) {
				t.Errorf("build_info labels incomplete: %q", line)
			}
			if fields[1] != "1" {
				t.Errorf("build_info value = %s, want 1", fields[1])
			}
		case strings.HasPrefix(line, "search_eval_sim_runs_total "):
			sawSearchMetrics = true
		case strings.HasPrefix(line, "serve_request_latency_sec_bucket{"):
			latencyBuckets++
			var cum int64
			if _, err := fmt.Sscan(fields[1], &cum); err != nil {
				t.Fatalf("bucket count %q: %v", line, err)
			}
			if cum < lastCum {
				t.Errorf("bucket counts not cumulative at %q (%d after %d)", line, cum, lastCum)
			}
			lastCum = cum
			le := line[strings.Index(line, `le="`)+4 : strings.LastIndex(line, `"`)]
			if le == "+Inf" {
				sawInf = true
			} else {
				var v float64
				if _, err := fmt.Sscan(le, &v); err != nil || v <= lastLe {
					t.Errorf("bucket bounds not increasing at %q", line)
				}
				lastLe = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if typeLines < 5 {
		t.Errorf("only %d # TYPE lines", typeLines)
	}
	if !sawRequestsTotal {
		t.Error("serve_requests_total missing (counter _total suffix)")
	}
	if !sawBuildInfo {
		t.Error("build_info gauge missing")
	}
	if !sawSearchMetrics {
		t.Error("per-search metrics not merged into the daemon registry")
	}
	if latencyBuckets < 8 || !sawInf {
		t.Errorf("request latency histogram has %d buckets (inf=%v), want >= 8 plus +Inf", latencyBuckets, sawInf)
	}
	srv.Drain()
}

// span is the wire form of a serve-side span event, flattened from the
// JSONL envelope ({"seq":N,"event":"span_start","data":{...}}).
type span struct {
	Kind   string
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Detail string `json:"detail"`
	Trace  string `json:"trace"`
}

// readSpans fetches and decodes a search's serve span stream.
func readSpans(t *testing.T, url, id string) []span {
	t.Helper()
	resp, err := http.Get(url + "/v1/search/" + id + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET spans = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("spans Content-Type = %q", ct)
	}
	var spans []span
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		sp := span{Kind: rec.Event}
		if err := json.Unmarshal(rec.Data, &sp); err != nil {
			t.Fatalf("span payload %q: %v", rec.Data, err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestSpansEndpoint runs a search to completion and checks its retained
// serve-side span stream: the expected span names, trace correlation IDs
// on every start, and a balanced start/end envelope.
func TestSpansEndpoint(t *testing.T) {
	srv, err := serve.New(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := submit(t, ts.URL, quickRequest(5)).ID
	if sr := waitDone(t, ts.URL, id); sr.Status != store.StatusDone {
		t.Fatalf("search ended %s: %s", sr.Status, sr.Error)
	}
	// A coalescing submit after completion must not corrupt the frozen
	// stream (its spans drop into the closed log).
	if dup := submit(t, ts.URL, quickRequest(5)); !dup.Coalesced {
		t.Fatal("resubmit did not coalesce")
	}

	spans := readSpans(t, ts.URL, id)
	if len(spans) == 0 {
		t.Fatal("finished search retained no spans")
	}
	starts := make(map[int]span)
	ends := make(map[int]bool)
	names := make(map[string]int)
	for _, sp := range spans {
		switch sp.Kind {
		case "span_start":
			if _, dup := starts[sp.ID]; dup {
				t.Fatalf("span %d started twice", sp.ID)
			}
			if sp.Trace == "" {
				t.Errorf("span %q has no trace ID", sp.Name)
			}
			if sp.Parent != 0 {
				if _, ok := starts[sp.Parent]; !ok {
					t.Errorf("span %d (%s) starts before its parent %d", sp.ID, sp.Name, sp.Parent)
				}
			}
			starts[sp.ID] = sp
			names[sp.Name]++
		case "span_end":
			if _, ok := starts[sp.ID]; !ok {
				t.Fatalf("span %d ended without starting", sp.ID)
			}
			if ends[sp.ID] {
				t.Fatalf("span %d ended twice", sp.ID)
			}
			ends[sp.ID] = true
		default:
			t.Fatalf("unexpected event kind %q in span stream", sp.Kind)
		}
	}
	for _, want := range []string{"http_request", "coalesce", "search_run", "queue_wait"} {
		if names[want] == 0 {
			t.Errorf("no %q span in the stream", want)
		}
	}
	for id, sp := range starts {
		if !ends[id] {
			t.Errorf("span %d (%s) never closed", id, sp.Name)
		}
	}
	// The submitting request and the run it launched share one trace.
	var reqTrace string
	for _, sp := range starts {
		if sp.Name == "http_request" {
			reqTrace = sp.Trace
		}
	}
	for _, sp := range starts {
		if sp.Name == "search_run" && sp.Trace != reqTrace {
			t.Errorf("search_run trace %q != submitting request trace %q", sp.Trace, reqTrace)
		}
	}

	// An unknown id 404s rather than opening a stream.
	resp, err := http.Get(ts.URL + "/v1/search/feedface/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id spans = %d, want 404", resp.StatusCode)
	}
	srv.Drain()
}

// TestExplainEndpoint checks the attribution endpoint end to end: a
// finished search explains its winning mapping with components summing to
// the makespan; unfinished or unknown searches are rejected.
func TestExplainEndpoint(t *testing.T) {
	srv, err := serve.New(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := submit(t, ts.URL, quickRequest(9)).ID
	if sr := waitDone(t, ts.URL, id); sr.Status != store.StatusDone {
		t.Fatalf("search ended %s: %s", sr.Status, sr.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/search/" + id + "/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET explain = %d: %s", resp.StatusCode, body)
	}
	var rep explain.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Program == "" || rep.MakespanSec <= 0 || rep.CriticalSegments == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	sum := rep.Sum()
	if diff := sum - rep.MakespanSec; diff > 1e-9*rep.MakespanSec || diff < -1e-9*rep.MakespanSec {
		t.Errorf("components sum to %v, makespan %v", sum, rep.MakespanSec)
	}

	r2, err := http.Get(ts.URL + "/v1/search/feedface/explain")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id explain = %d, want 404", r2.StatusCode)
	}
	srv.Drain()
}

// TestDebugHandlerPprof checks the guarded debug mux: pprof lives on its
// own handler (never the public mux), and the public handler keeps 404ing
// the pprof paths.
func TestDebugHandlerPprof(t *testing.T) {
	srv, err := serve.New(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	debug := httptest.NewServer(srv.DebugHandler())
	defer debug.Close()
	public := httptest.NewServer(srv.Handler())
	defer public.Close()

	resp, err := http.Get(debug.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug /debug/pprof/ = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte("goroutine")) {
		t.Errorf("pprof index does not list profiles:\n%s", body)
	}

	resp, err = http.Get(public.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("public mux serves /debug/pprof/ (%d), want 404", resp.StatusCode)
	}
}

// TestListEndpoint checks /v1/searches: every known search appears, with
// results elided so listings stay small.
func TestListEndpoint(t *testing.T) {
	srv, err := serve.New(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	id := submit(t, ts.URL, quickRequest(3)).ID
	waitDone(t, ts.URL, id)

	resp, err := http.Get(ts.URL + "/v1/searches")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 {
		t.Fatalf("%d searches listed, want 1", len(list))
	}
	if list[0].ID != id || list[0].Status != store.StatusDone {
		t.Errorf("listed search = %+v", list[0])
	}
	if list[0].Result != nil {
		t.Error("listing carries a result; want it elided")
	}
}
