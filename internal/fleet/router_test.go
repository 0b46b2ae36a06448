package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// routerBody is a valid quick-search request document (the router
// fingerprints submissions before routing them).
const routerBody = `{"app":"stencil","input":"500x500","algorithm":"ccd","seed":1,` +
	`"max_suggestions":60,"repeats":2,"final_repeats":2,"final_candidates":2}`

// stubReplica answers the replica endpoints a router exercises.
type stubReplica struct {
	name string
	// searches is the /v1/searches listing body.
	searches string
	// unhealthy flips /healthz to 503 draining (atomic: the router's
	// probe goroutine reads while the test writes).
	unhealthy atomic.Bool
	// block, when non-nil, stalls proxied /v1/search requests carrying an
	// X-Block header until it is closed (in-flight cap tests); unmarked
	// requests answer immediately. entered signals that a request is
	// stalled inside the stub.
	block   chan struct{}
	entered chan struct{}
}

func (s *stubReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz":
		if s.unhealthy.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	case r.URL.Path == "/v1/searches":
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, s.searches)
	default:
		if s.block != nil && r.Header.Get("X-Block") != "" {
			select {
			case s.entered <- struct{}{}:
			default:
			}
			<-s.block
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"id":"%032x","status":"done","served_by":%q}`, 1, s.name)
	}
}

// startRouter wires stub replicas behind a fresh router and returns the
// router plus its handler test server.
func startRouter(t *testing.T, cfg RouterConfig, stubs map[string]*stubReplica) (*Router, *httptest.Server) {
	t.Helper()
	cfg.Replicas = make(map[string]string, len(stubs))
	for name, stub := range stubs {
		ts := httptest.NewServer(stub)
		t.Cleanup(ts.Close)
		cfg.Replicas[name] = ts.URL
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)
	return rt, front
}

func submitBody(t *testing.T, front, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(front+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterQuotaShed: a tenant over its token bucket gets 429 with a
// Retry-After hint and a JSON error; the bucket refills with the clock.
func TestRouterQuotaShed(t *testing.T) {
	clk := &fakeClock{}
	rt, front := startRouter(t, RouterConfig{
		Quota:       Quota{RPS: 1, Burst: 1},
		HealthEvery: time.Hour,
		Clock:       clk.clock,
	}, map[string]*stubReplica{"a": {name: "a"}})

	resp := submitBody(t, front.URL, routerBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first submit = %d, want 200", resp.StatusCode)
	}
	resp = submitBody(t, front.URL, routerBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("shed response missing Retry-After")
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("shed response body not a JSON error: %v %+v", err, body)
	}
	if got := rt.Metrics(); got == nil {
		t.Fatal("router has no metrics registry")
	}

	// A refilled bucket admits again.
	clk.advance(2)
	resp = submitBody(t, front.URL, routerBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill submit = %d, want 200", resp.StatusCode)
	}
}

// TestRouterInflightShed: the global in-flight cap sheds excess requests
// while earlier ones are still proxied.
func TestRouterInflightShed(t *testing.T) {
	block := make(chan struct{})
	stub := &stubReplica{name: "a", block: block, entered: make(chan struct{}, 1)}
	_, front := startRouter(t, RouterConfig{
		MaxInflight: 1,
		HealthEvery: time.Hour,
	}, map[string]*stubReplica{"a": stub})

	first := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, front.URL+"/v1/search", strings.NewReader(routerBody))
		if err != nil {
			first <- 0
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Block", "1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	// Wait until the first request is provably stalled inside the stub
	// replica — it holds the router's only in-flight slot from here until
	// block closes.
	select {
	case <-stub.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked request never reached the stub replica")
	}
	resp := submitBody(t, front.URL, routerBody)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request over the in-flight cap = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("in-flight shed missing Retry-After")
	}
	close(block)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("stalled first request finished with %d, want 200", got)
	}
}

// TestRouterFleetStatus: GET /v1/fleet reports every replica sorted by
// name with live health, and GET /metrics serves the router's registry.
func TestRouterFleetStatus(t *testing.T) {
	rt, front := startRouter(t, RouterConfig{HealthEvery: time.Hour},
		map[string]*stubReplica{
			"b": {name: "b"},
			"a": {name: "a"},
		})

	fetch := func() fleetStatus {
		t.Helper()
		resp, err := http.Get(front.URL + "/v1/fleet")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var fs fleetStatus
		if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	fs := fetch()
	if len(fs.Replicas) != 2 || fs.Replicas[0].Name != "a" || fs.Replicas[1].Name != "b" {
		t.Fatalf("fleet status not sorted by name: %+v", fs)
	}
	for _, r := range fs.Replicas {
		if !r.Healthy || r.URL == "" {
			t.Fatalf("replica %q unhealthy or missing URL in %+v", r.Name, fs)
		}
	}
	rt.setHealth("b", false)
	fs = fetch()
	if fs.Replicas[1].Healthy {
		t.Fatalf("marked-down replica still healthy: %+v", fs)
	}

	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "fleet_router_requests") &&
		!strings.Contains(string(metrics), "fleet.router.requests") {
		t.Errorf("router metrics missing request counter:\n%s", metrics)
	}
}

// TestRouterList: GET /v1/searches merges every healthy replica's
// listing, deduplicates by id, and sorts.
func TestRouterList(t *testing.T) {
	_, front := startRouter(t, RouterConfig{HealthEvery: time.Hour},
		map[string]*stubReplica{
			"a": {name: "a",
				searches: `[{"id":"bbb","status":"done"},{"id":"aaa","status":"done"}]`},
			"b": {name: "b",
				searches: `[{"id":"bbb","status":"done"},{"id":"ccc","status":"running"}]`},
		})

	resp, err := http.Get(front.URL + "/v1/searches")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(list))
	for i, e := range list {
		got[i] = e.ID
	}
	want := []string{"aaa", "bbb", "ccc"}
	if len(got) != len(want) {
		t.Fatalf("merged listing = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged listing = %v, want %v", got, want)
		}
	}
}

// TestRouterHealthProbe: the health loop ejects a replica that stops
// answering 200 (draining counts) and re-admits it when it recovers.
func TestRouterHealthProbe(t *testing.T) {
	stub := &stubReplica{name: "a"}
	rt, _ := startRouter(t, RouterConfig{HealthEvery: 10 * time.Millisecond},
		map[string]*stubReplica{"a": stub})

	healthyInRing := func() bool {
		rt.mu.Lock()
		defer rt.mu.Unlock()
		return rt.replicas["a"].healthy
	}
	wait := func(want bool, why string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if healthyInRing() == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("health loop never %s", why)
			}
		}
	}
	wait(true, "saw the replica healthy")
	stub.unhealthy.Store(true)
	wait(false, "ejected the draining replica")
	stub.unhealthy.Store(false)
	wait(true, "re-admitted the recovered replica")
}
