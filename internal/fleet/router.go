// Router: the fleet's front door.
//
// The router owns placement and admission, and nothing else — it keeps no
// search state. Every POST /v1/search is admitted (per-tenant token
// bucket + global in-flight cap, shed as 429 + Retry-After), fingerprinted
// (cached), and forwarded to the fingerprint's ring owner, so duplicate
// requests land on the same replica and coalesce there exactly-once.
// Reads route by the fingerprint in the path. A replica that stops
// answering /healthz with 200 — dead, unreachable, or draining (503
// "draining") — is ejected from the ring; its arcs fall to the ring
// successors, which hold the replicated state for exactly those keys.
//
// Router endpoints beyond the proxied daemon API:
//
//	GET /v1/fleet  fleet topology and per-replica health
//	GET /metrics   the router's own metrics (each replica serves its own,
//	               stamped with a replica label)

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"automap/internal/serve"
	"automap/internal/telemetry"
)

// RouterConfig parameterizes the fleet router.
type RouterConfig struct {
	// Replicas maps replica names to base URLs; the set must match the
	// replicas' own Peers configuration.
	Replicas map[string]string
	// Quota is the default per-tenant admission quota (zero =
	// unlimited); TenantQuotas overrides it per tenant.
	Quota        Quota
	TenantQuotas map[string]Quota
	// MaxInflight caps concurrently proxied requests; <= 0 means
	// unlimited. Requests over the cap are shed with 429.
	MaxInflight int
	// HealthEvery is the health-probe period (0 = 1s).
	HealthEvery time.Duration
	// Clock is injectable for admission tests; nil means wall clock.
	Clock telemetry.Clock
}

// replicaState is the router's view of one replica.
type replicaState struct {
	name    string
	url     string
	healthy bool
}

// Router is the fleet's consistent-hash front door. Create with
// NewRouter, serve Handler(), stop with Close.
type Router struct {
	cfg       RouterConfig
	admission *Admission
	reg       *telemetry.Registry
	fp        *serve.FingerprintCache

	mu       sync.Mutex
	ring     *Ring
	replicas map[string]*replicaState

	inflight atomic.Int64

	// proxy performs forwarded requests. No overall timeout: event
	// streams are long-lived by design; the transport bounds dialing
	// and response headers instead.
	proxy *http.Client
	// probe performs health checks with a tight timeout.
	probe *http.Client

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mRequests   *telemetry.Counter
	mShedQuota  *telemetry.Counter
	mShedInfl   *telemetry.Counter
	mFailovers  *telemetry.Counter
	mNoReplica  *telemetry.Counter
	mForwarded  map[string]*telemetry.Counter
	gHealthy    *telemetry.Gauge
	hProxyLat   *telemetry.Histogram
	clockForLat telemetry.Clock
}

// proxyLatencyBounds mirrors the daemon's request-latency buckets.
var proxyLatencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// NewRouter returns a running router (health probing starts immediately).
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one replica")
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = time.Second
	}
	clock := cfg.Clock
	if clock == nil {
		clock = telemetry.WallClock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	transport := &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		ResponseHeaderTimeout: 120 * time.Second,
		MaxIdleConnsPerHost:   256,
	}
	reg := telemetry.NewRegistry()
	rt := &Router{
		cfg:         cfg,
		admission:   NewAdmission(cfg.Quota, cfg.TenantQuotas, clock),
		reg:         reg,
		fp:          serve.NewFingerprintCache(),
		ring:        NewRing(Vnodes),
		replicas:    make(map[string]*replicaState),
		proxy:       &http.Client{Transport: transport},
		probe:       &http.Client{Timeout: 2 * time.Second},
		ctx:         ctx,
		cancel:      cancel,
		mRequests:   reg.Counter("fleet.router.requests"),
		mShedQuota:  reg.Counter("fleet.router.shed.quota"),
		mShedInfl:   reg.Counter("fleet.router.shed.inflight"),
		mFailovers:  reg.Counter("fleet.router.failovers"),
		mNoReplica:  reg.Counter("fleet.router.no_replica"),
		mForwarded:  make(map[string]*telemetry.Counter),
		gHealthy:    reg.Gauge("fleet.router.healthy_replicas"),
		hProxyLat:   reg.Histogram("fleet.router.proxy.latency_sec", proxyLatencyBounds),
		clockForLat: clock,
	}
	//mapvet:unordered ring and state maps are order-insensitive
	for name, url := range cfg.Replicas {
		rt.replicas[name] = &replicaState{name: name, url: url, healthy: true}
		rt.ring.Add(name)
		rt.mForwarded[name] = reg.Counter(fmt.Sprintf("fleet.router.forwarded{replica=%q}", name))
	}
	rt.gHealthy.Set(float64(len(cfg.Replicas)))
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.healthLoop()
	}()
	return rt, nil
}

// Close stops health probing.
func (rt *Router) Close() {
	rt.cancel()
	rt.wg.Wait()
}

// Metrics exposes the router's registry.
func (rt *Router) Metrics() *telemetry.Registry { return rt.reg }

// healthLoop probes every replica each period and adjusts the ring.
func (rt *Router) healthLoop() {
	t := time.NewTicker(rt.cfg.HealthEvery)
	defer t.Stop()
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-t.C:
			rt.probeAll()
		}
	}
}

// probeAll checks /healthz on every replica. 200 is healthy; anything
// else — connection refused, 503 draining — ejects the replica.
func (rt *Router) probeAll() {
	rt.mu.Lock()
	targets := make([]replicaState, 0, len(rt.replicas))
	//mapvet:unordered each probe outcome is applied independently per replica
	for _, st := range rt.replicas {
		targets = append(targets, *st)
	}
	rt.mu.Unlock()
	for _, st := range targets {
		healthy := rt.probeOne(st.url)
		rt.setHealth(st.name, healthy)
	}
}

// probeOne performs a single health check.
func (rt *Router) probeOne(url string) bool {
	req, err := http.NewRequestWithContext(rt.ctx, http.MethodGet, url+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := rt.probe.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// setHealth applies one probe outcome to the ring.
func (rt *Router) setHealth(name string, healthy bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, ok := rt.replicas[name]
	if !ok || st.healthy == healthy {
		return
	}
	st.healthy = healthy
	if healthy {
		rt.ring.Add(name)
	} else {
		rt.ring.Remove(name)
	}
	n := 0
	//mapvet:unordered counting healthy replicas is order-insensitive
	for _, st := range rt.replicas {
		if st.healthy {
			n++
		}
	}
	rt.gHealthy.Set(float64(n))
}

// owners returns up to n healthy replicas for key in ring order.
func (rt *Router) owners(key string, n int) []replicaState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	names := rt.ring.OwnerN(key, n)
	out := make([]replicaState, 0, len(names))
	for _, name := range names {
		if st, ok := rt.replicas[name]; ok {
			out = append(out, *st)
		}
	}
	return out
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", rt.handleSubmit)
	mux.HandleFunc("GET /v1/searches", rt.handleList)
	mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /v1/search/", http.HandlerFunc(rt.handleRead))
	return mux
}

// shed answers a load-shedding 429 with a Retry-After hint.
func shed(w http.ResponseWriter, retryAfter float64, why string) {
	sec := int(math.Ceil(retryAfter))
	if sec < 1 {
		sec = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(sec))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(map[string]string{"error": why})
}

// admitInflight charges the global in-flight cap; the caller must release
// when it returns true.
func (rt *Router) admitInflight() bool {
	if rt.cfg.MaxInflight <= 0 {
		rt.inflight.Add(1)
		return true
	}
	if rt.inflight.Add(1) > int64(rt.cfg.MaxInflight) {
		rt.inflight.Add(-1)
		return false
	}
	return true
}

// handleSubmit admits, fingerprints, and forwards one search submission.
func (rt *Router) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if ok, retry := rt.admission.Admit(tenant); !ok {
		rt.mShedQuota.Add(1)
		shed(w, retry, fmt.Sprintf("tenant %q over quota", tenant))
		return
	}
	if !rt.admitInflight() {
		rt.mShedInfl.Add(1)
		shed(w, 1, "router at max in-flight requests")
		return
	}
	defer rt.inflight.Add(-1)

	body, err := io.ReadAll(io.LimitReader(r.Body, serve.MaxRequestBody))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, err := rt.fp.Key(body)
	if err != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
		return
	}
	rt.forward(w, r, key, body)
}

// handleRead routes GET /v1/search/{id}[/...] by the fingerprint in the
// path.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	key, ok := searchPathKey(r.URL.Path)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if !rt.admitInflight() {
		rt.mShedInfl.Add(1)
		shed(w, 1, "router at max in-flight requests")
		return
	}
	defer rt.inflight.Add(-1)
	rt.forward(w, r, key, nil)
}

// forward proxies the request to key's owner, failing over along the ring
// while replicas are unreachable. Replica-reported errors (4xx/5xx
// responses) pass through — only transport failures fail over, and the
// failed replica is ejected so subsequent requests skip it.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	start := rt.clockForLat()
	candidates := rt.owners(key, len(rt.cfg.Replicas))
	for i, st := range candidates {
		resp, err := rt.proxyTo(st, r, body)
		if err != nil {
			rt.setHealth(st.name, false)
			if i+1 < len(candidates) {
				rt.mFailovers.Add(1)
			}
			continue
		}
		rt.mu.Lock()
		c := rt.mForwarded[st.name]
		rt.mu.Unlock()
		c.Add(1)
		w.Header().Set("X-Mapd-Routed-To", st.name)
		copyResponse(w, resp)
		rt.hProxyLat.Observe(rt.clockForLat() - start)
		return
	}
	rt.mNoReplica.Add(1)
	w.Header().Set("Retry-After", "1")
	http.Error(w, "no healthy replica for key "+key, http.StatusServiceUnavailable)
}

// proxyTo issues the proxied request against one replica.
func (rt *Router) proxyTo(st replicaState, r *http.Request, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	url := st.url + r.URL.Path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	return rt.proxy.Do(req)
}

// copyResponse relays a replica response, flushing per chunk so NDJSON
// event streams flow through the router live.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	//mapvet:unordered http.Header is a set of independent key/value pairs
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// handleList fans GET /v1/searches out to every healthy replica and
// merges the entries (deduplicated by id, sorted).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	rt.mRequests.Add(1)
	rt.mu.Lock()
	targets := make([]replicaState, 0, len(rt.replicas))
	//mapvet:unordered merged listing is deduplicated and sorted below
	for _, st := range rt.replicas {
		if st.healthy {
			targets = append(targets, *st)
		}
	}
	rt.mu.Unlock()
	type entry struct {
		ID string `json:"id"`
		// The rest of the status document passes through untouched.
		Raw json.RawMessage `json:"-"`
	}
	seen := make(map[string]json.RawMessage)
	for _, st := range targets {
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, st.url+"/v1/searches", nil)
		if err != nil {
			continue
		}
		resp, err := rt.proxy.Do(req)
		if err != nil {
			rt.setHealth(st.name, false)
			continue
		}
		var list []json.RawMessage
		err = json.NewDecoder(io.LimitReader(resp.Body, maxBundleBytes)).Decode(&list)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, raw := range list {
			var e entry
			if json.Unmarshal(raw, &e) == nil && e.ID != "" {
				if _, ok := seen[e.ID]; !ok {
					seen[e.ID] = raw
				}
			}
		}
	}
	ids := make([]string, 0, len(seen))
	//mapvet:unordered ids are sorted before writing
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]json.RawMessage, 0, len(ids))
	for _, id := range ids {
		out = append(out, seen[id])
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// fleetStatus is the GET /v1/fleet document.
type fleetStatus struct {
	Replicas []replicaStatus `json:"replicas"`
}

type replicaStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

// handleFleet reports the router's view of the fleet.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	rt.mu.Lock()
	out := fleetStatus{Replicas: make([]replicaStatus, 0, len(rt.replicas))}
	//mapvet:unordered replicas are sorted by name below
	for _, st := range rt.replicas {
		out.Replicas = append(out.Replicas, replicaStatus{st.name, st.url, st.healthy})
	}
	rt.mu.Unlock()
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].Name < out.Replicas[j].Name })
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// handleMetrics serves the router's own registry (Prometheus text).
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	rt.reg.WritePrometheus(w)
}
