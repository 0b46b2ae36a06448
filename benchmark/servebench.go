package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"automap/internal/fleet"
	"automap/internal/serve"
)

// The serve workload: open-loop traffic through an in-process fleet of
// fleetSize replicas behind a router, quota off. Every component is built
// from its public constructor (fleet.NewReplica, fleet.NewRouter) and
// reached over loopback HTTP, as a client would.

const fleetSize = 2

// warmCount is how many popular requests set-up warms; hits pick among
// them by Zipf rank.
const warmCount = 8

// serveMix: one request in 200 is a cold submit that runs a real search;
// of the rest a fifth are status reads and the others hits.
var serveMix = trafficMix{read: 0.20, coldEvery: 200, zipfS: 1.1}

// serveSteps are the schedule's fixed rates (requests per second), each
// with its share of the window. The nominal step, where the latency and
// CPU figures are read, gets the largest share so its tail has enough
// samples; the others bracket it for the capacity verdict.
var serveSteps = []struct {
	rate, share float64
}{
	{300, 0.2}, {600, 0.4}, {1200, 0.2}, {2400, 0.2},
}

const nominalStep = 1

// warmApps are the programs of the popular requests, cycled in order: the
// serve path fingerprints the request on every submit, which builds the
// program's graph, so its cost depends on the program.
var warmApps = []struct{ app, input string }{
	{"stencil", "500x500"},
	{"circuit", "n50w200"},
	{"pennant", "320x90"},
	{"htr", "8x8y9z"},
}

// searchBody is a small, quick search request (the shape of the fleet's
// own load-generation bodies).
func searchBody(app, input string, seed uint64) string {
	return fmt.Sprintf(`{"app":%q,"input":%q,"algorithm":"ccd","seed":%d,`+
		`"max_suggestions":40,"repeats":2,"final_repeats":2,"final_candidates":2,"workers":1}`, app, input, seed)
}

// requestSeeds draws the per-request search seeds of a run: warm seeds in
// [1, 1e9), cold seeds in [1e9, 2e9), so a cold submit never lands on a
// warm fingerprint.
type requestSeeds struct {
	warm []uint64
	base uint64
}

func newRequestSeeds(seed uint64) requestSeeds {
	rng := newRand(seed, "request-seeds")
	rs := requestSeeds{base: seed}
	for i := 0; i < warmCount; i++ {
		rs.warm = append(rs.warm, 1+rng.Uint64N(1e9-1))
	}
	return rs
}

func (rs requestSeeds) warmBody(i int) string {
	a := warmApps[i%len(warmApps)]
	return searchBody(a.app, a.input, rs.warm[i])
}

// coldBody is the i-th cold request of a pass; pass separates the two
// schedule runs of a traced run so neither reuses the other's searches.
func (rs requestSeeds) coldBody(pass, i int) string {
	seed := 1e9 + (rs.base*7919+uint64(pass)*104729+uint64(i)*15485863)%1e9
	return searchBody("pennant", "320x90", seed)
}

// handlerLog is the replica-side timing middleware's record: per tagged
// request, the time inside Replica.Handler(); in aggregate, the time and
// count of every request that reaches the daemon's own handler (all but
// the fleet-internal endpoints), to compare against the daemon's
// serve.request.latency_sec.
type handlerLog struct {
	enabled atomic.Bool
	tags    sync.Map // tag -> time.Duration
	mu      sync.Mutex
	sum     time.Duration
	count   int64
}

func (l *handlerLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.enabled.Load() || strings.HasPrefix(r.URL.Path, "/v1/internal/") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(start)
		l.mu.Lock()
		l.sum += d
		l.count++
		l.mu.Unlock()
		if tag := r.Header.Get(benchReqHeader); tag != "" {
			l.tags.Store(tag, d)
		}
	})
}

func (l *handlerLog) take(tag string) time.Duration {
	v, ok := l.tags.LoadAndDelete(tag)
	if !ok {
		return 0
	}
	return v.(time.Duration)
}

func (l *handlerLog) totals() (time.Duration, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum, l.count
}

// fleetHandle is a running in-process fleet.
type fleetHandle struct {
	url      string
	router   *fleet.Router
	replicas []*fleet.Replica
	servers  []*http.Server // replicas', then the router's
	handlers *handlerLog
}

// startFleet boots fleetSize replicas and a router (quota off) on loopback
// listeners, with store directories under dir.
func startFleet(dir string) (*fleetHandle, error) {
	f := &fleetHandle{handlers: &handlerLog{}}
	listeners := make([]net.Listener, fleetSize)
	peers := make(map[string]string, fleetSize)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners(listeners)
			return nil, err
		}
		listeners[i] = l
		peers[fmt.Sprintf("r%d", i)] = "http://" + l.Addr().String()
	}
	for i := range listeners {
		rep, err := fleet.NewReplica(fleet.ReplicaConfig{
			Name:  fmt.Sprintf("r%d", i),
			Peers: peers,
			Dir:   filepath.Join(dir, fmt.Sprintf("r%d", i)),
		})
		if err != nil {
			closeListeners(listeners[i:])
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, rep)
		srv := &http.Server{Handler: f.handlers.wrap(rep.Handler())}
		f.servers = append(f.servers, srv)
		go srv.Serve(listeners[i])
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{Replicas: peers})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	rs := &http.Server{Handler: rt.Handler()}
	f.servers = append(f.servers, rs)
	go rs.Serve(rl)
	f.url = "http://" + rl.Addr().String()
	return f, nil
}

// closeListeners closes the listeners no server has taken over yet.
func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		if l != nil {
			l.Close()
		}
	}
}

// close stops the router, drains every replica (in-flight searches stop
// and suspend), and closes the listeners; it returns once every search and
// replication goroutine of the fleet has exited.
func (f *fleetHandle) close() {
	if n := len(f.servers); n > len(f.replicas) {
		f.servers[n-1].Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for i, rep := range f.replicas {
		rep.Server().Drain()
		f.servers[i].Close()
		rep.Close()
	}
}

// snapshot merges the metrics registries of every replica (summing) and
// the router.
func (f *fleetHandle) snapshot() map[string]float64 {
	out := make(map[string]float64)
	for _, rep := range f.replicas {
		for k, v := range rep.Server().Metrics().Snapshot() {
			out[k] += v
		}
	}
	for k, v := range f.router.Metrics().Snapshot() {
		out[k] += v
	}
	return out
}

// warmUp submits the popular requests one at a time, each after the
// previous one is done, recording each one's id and first result. One at a
// time keeps set-up independent of how the ring spreads the requests over
// the replicas.
func warmUp(ctx context.Context, hc *http.Client, url string, rs requestSeeds, book *resultBook) ([]warmSearch, error) {
	warm := make([]warmSearch, warmCount)
	for i := range warm {
		warm[i].body = rs.warmBody(i)
		doc, err := postSearch(ctx, hc, url, warm[i].body)
		if err != nil {
			return nil, fmt.Errorf("warm-up submit: %w", err)
		}
		warm[i].id = doc.ID
		if doc, err = waitDone(ctx, hc, url, doc.ID, time.Minute); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := book.check(doc.ID, doc.Result); err != nil {
			return nil, err
		}
	}
	return warm, nil
}

func postSearch(ctx context.Context, hc *http.Client, url, body string) (*statusDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/search", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	return doStatus(hc, req)
}

func getSearch(ctx context.Context, hc *http.Client, url, id string) (*statusDoc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/search/"+id, nil)
	if err != nil {
		return nil, err
	}
	return doStatus(hc, req)
}

func doStatus(hc *http.Client, req *http.Request) (*statusDoc, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("%s %s: HTTP %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	var doc statusDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// waitDone polls a search until it is done.
func waitDone(ctx context.Context, hc *http.Client, url, id string, limit time.Duration) (*statusDoc, error) {
	deadline := time.Now().Add(limit)
	for {
		doc, err := getSearch(ctx, hc, url, id)
		if err != nil {
			return nil, err
		}
		switch doc.Status {
		case "done":
			return doc, nil
		case "failed", "suspended":
			return nil, fmt.Errorf("search %s is %s: %s", id, doc.Status, doc.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("search %s not done after %v", id, limit)
		}
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// servePass is one run of the schedule against a freshly set-up fleet.
type servePass struct {
	ops     []scheduledOp
	results []opResult
	steps   []loadStep
	// samples[i] is taken at the start of step i; samples[len(steps)] at
	// the end of the window.
	samples    []fleetSample
	ttr        []time.Duration
	unfinished int
}

// fleetSample is the state read at a step boundary.
type fleetSample struct {
	cpu        time.Duration
	metrics    map[string]float64
	handlerSum time.Duration
	handlerN   int64
}

// setupServe sets up a fleet and warms it, setupRepeats times, keeping
// the last; it returns the fleet, its warm requests and result book, and
// the median set-up seconds.
func setupServe(ctx context.Context, hc *http.Client, scratch string, rs requestSeeds, label string) (*fleetHandle, []warmSearch, *resultBook, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		start := time.Now()
		f, err := startFleet(filepath.Join(scratch, fmt.Sprintf("%s-%d", label, i)))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		book := newResultBook()
		warm, err := warmUp(ctx, hc, f.url, rs, book)
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			f.close()
			return nil, nil, nil, 0, err
		}
		if i == setupRepeats-1 {
			return f, warm, book, median(times), nil
		}
		f.close()
	}
}

// runServePass sets up a fleet, runs the schedule against it with the
// handler middleware on or off, drains the cold searches, and stops the
// fleet.
func runServePass(ctx context.Context, cfg runConfig, pass int, traced bool) (*servePass, float64, error) {
	workers := runtime.GOMAXPROCS(0)
	hc := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
		},
	}
	defer hc.CloseIdleConnections()
	rs := newRequestSeeds(cfg.seed)
	f, warm, book, setupS, err := setupServe(ctx, hc, cfg.scratch, rs, fmt.Sprintf("pass%d", pass))
	if err != nil {
		return nil, 0, err
	}
	defer f.close()
	f.handlers.enabled.Store(traced)

	sp := &servePass{}
	for _, st := range serveSteps {
		sp.steps = append(sp.steps, loadStep{rate: st.rate, dur: time.Duration(st.share * float64(cfg.window))})
	}
	sp.ops = buildSchedule(cfg.seed, sp.steps, warmCount, serveMix)
	c := &client{
		http:    hc,
		target:  f.url,
		warm:    warm,
		cold:    func(i int) string { return rs.coldBody(pass, i) },
		results: book,
		colds:   newColdBook(),
	}
	if traced {
		c.handlerTime = f.handlers.take
	}

	start := time.Now()
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		var at time.Duration
		for i := 0; i <= len(sp.steps); i++ {
			if d := time.Until(start.Add(at)); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					return
				}
			}
			s := fleetSample{cpu: cpuTime(), metrics: f.snapshot()}
			s.handlerSum, s.handlerN = f.handlers.totals()
			sp.samples = append(sp.samples, s)
			if i < len(sp.steps) {
				at += sp.steps[i].dur
			}
		}
	}()
	sp.results = c.run(ctx, sp.ops, start, workers)
	<-sampleDone
	if len(sp.samples) != len(sp.steps)+1 {
		return nil, 0, fmt.Errorf("serve pass interrupted: %w", ctx.Err())
	}

	// Drain: poll every cold search still open until it reads done.
	for _, id := range c.colds.pending() {
		doc, err := waitDone(ctx, hc, f.url, id, time.Minute)
		if err != nil {
			fmt.Fprintln(cfg.log, "benchmark: cold search:", err)
			sp.unfinished++
			continue
		}
		if err := book.check(doc.ID, doc.Result); err != nil {
			fmt.Fprintln(cfg.log, "benchmark: cold search:", err)
			sp.unfinished++
			continue
		}
		c.colds.finished(id, time.Since(start))
	}
	sp.ttr = c.colds.ttr
	return sp, setupS, nil
}

// stepStats are the latency figures of one step.
type stepStats struct {
	hits, reads, late []float64 // ms
	ops               int
}

func (sp *servePass) step(i int) stepStats {
	var st stepStats
	for j := range sp.ops {
		op, res := &sp.ops[j], &sp.results[j]
		if op.step != i {
			continue
		}
		st.ops++
		if res.err != nil {
			continue
		}
		st.late = append(st.late, ms(res.late(op)))
		switch op.kind {
		case opHit:
			st.hits = append(st.hits, ms(res.latency(op)))
		case opRead:
			st.reads = append(st.reads, ms(res.latency(op)))
		}
	}
	return st
}

// failures counts failed requests and unfinished cold searches, logging
// the first few.
func (sp *servePass) failures(log func(string)) int {
	n := sp.unfinished
	for j := range sp.results {
		if err := sp.results[j].err; err != nil {
			if n < 5 {
				log(err.Error())
			}
			n++
		}
	}
	return n
}

// latencyLimit reads the hit-latency limit the serve workload's "why" in
// BENCHMARK.json states ("... hit p99 under N ms").
func latencyLimit(man *manifest, workload string) (float64, error) {
	m := regexp.MustCompile(`hit p99 under ([0-9.]+) ms`).FindStringSubmatch(man.why(workload))
	if m == nil {
		return 0, fmt.Errorf("%s: the %s why must state the capacity latency limit as \"hit p99 under N ms\"", manifestPath, workload)
	}
	return strconv.ParseFloat(m[1], 64)
}

func runServeWorkload(cfg runConfig) (*measurement, error) {
	limit, err := latencyLimit(cfg.manifest, cfg.workload)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	meas := newMeasurement()
	logf := func(s string) { fmt.Fprintln(cfg.log, "benchmark:", s) }

	base, setupS, err := runServePass(ctx, cfg, 0, false)
	if err != nil {
		return nil, err
	}
	meas.set("setup_s", setupS, fmt.Sprintf("median of %d set-ups (fleet start + %d warm searches)", setupRepeats, warmCount))
	meas.attempted = len(base.ops)
	meas.failed = base.failures(logf)
	reportServeEndToEnd(meas, base, limit)
	if !cfg.trace {
		return meas, nil
	}
	traced, _, err := runServePass(ctx, cfg, 1, true)
	if err != nil {
		return nil, err
	}
	meas.attempted += len(traced.ops)
	meas.failed += traced.failures(logf)
	reportServeLayers(meas, base, traced, newRequestSeeds(cfg.seed))
	setZero(meas, searchLayerMetrics)
	return meas, nil
}

// reportServeEndToEnd sets the untraced pass's metrics: hit latency at the
// nominal step, CPU per request over the window, per-step latencies,
// cold time to result, and capacity — the highest step whose hit tail
// stays under the limit while the generator keeps up (its own lateness
// tail under the limit too, i.e. no growing backlog).
func reportServeEndToEnd(meas *measurement, sp *servePass, limit float64) {
	nom := sp.step(nominalStep)
	tail, pct := tailPercentile(nom.hits)
	meas.set("latency_p50_ms", median(nom.hits), fmt.Sprintf("warm-hit submit from due time at %g rps, median of %d", serveSteps[nominalStep].rate, len(nom.hits)))
	meas.set("latency_tail_ms", tail, fmt.Sprintf("warm-hit p%g of %d at %g rps", pct, len(nom.hits), serveSteps[nominalStep].rate))
	cpu := sp.samples[len(sp.steps)].cpu - sp.samples[0].cpu
	meas.set("cpu_ms_per_op", ms(cpu)/float64(len(sp.ops)), fmt.Sprintf("process CPU over the %d requests of the window", len(sp.ops)))
	capacity := 0.0
	var verdicts []string
	for i, step := range sp.steps {
		r := step.rate
		st := sp.step(i)
		ht, hp := tailPercentile(st.hits)
		lt, _ := tailPercentile(st.late)
		ok := len(st.hits) > 0 && ht < limit && lt < limit
		if ok && r > capacity {
			capacity = r
		}
		verdicts = append(verdicts, fmt.Sprintf("%g:p%g=%.1fms,late=%.1fms", r, hp, ht, lt))
		rt, rp := tailPercentile(st.reads)
		meas.set(fmt.Sprintf("step%d.hit_p50_ms", i), median(st.hits), fmt.Sprintf("%g rps, %d hits", r, len(st.hits)))
		meas.set(fmt.Sprintf("step%d.hit_tail_ms", i), ht, fmt.Sprintf("%g rps, p%g", r, hp))
		meas.set(fmt.Sprintf("step%d.read_tail_ms", i), rt, fmt.Sprintf("%g rps, p%g of %d reads", r, rp, len(st.reads)))
		meas.set(fmt.Sprintf("step%d.late_tail_ms", i), lt, fmt.Sprintf("%g rps", r))
		if i == nominalStep {
			meas.set("serve.read_tail_ms", rt, fmt.Sprintf("status GET from due time at %g rps, p%g of %d", r, rp, len(st.reads)))
		}
	}
	meas.set("serve.capacity_rps", capacity, fmt.Sprintf("capacity: highest rate with hit tail and lateness under %g ms (%s)", limit, strings.Join(verdicts, " ")))
	ttr := make([]float64, len(sp.ttr))
	for i, d := range sp.ttr {
		ttr[i] = d.Seconds()
	}
	meas.set("serve.cold_ttr_p50_s", median(ttr), fmt.Sprintf("median of %d cold submits, due to read as done", len(ttr)))
}

// reportServeLayers sets the serve per-layer metrics from the traced pass
// (at the nominal step unless stated), plus the tracing overhead against
// the untraced pass.
func reportServeLayers(meas *measurement, base, tr *servePass, rs requestSeeds) {
	nomBase, nom := base.step(nominalStep), tr.step(nominalStep)
	meas.set("trace.overhead_s", (median(nom.hits)-median(nomBase.hits))/1000, "traced minus untraced nominal hit p50")

	var router, late []float64
	for j := range tr.ops {
		op, res := &tr.ops[j], &tr.results[j]
		if op.step != nominalStep || res.err != nil {
			continue
		}
		late = append(late, ms(res.late(op)))
		if op.kind == opHit && res.handler > 0 {
			router = append(router, ms(res.done-res.sent-res.handler))
		}
	}
	meas.set("fleet.router_ms", median(router), fmt.Sprintf("client latency minus replica handler time, median of %d hits", len(router)))
	a, b := tr.samples[nominalStep], tr.samples[nominalStep+1]
	hSum, hN := b.handlerSum-a.handlerSum, b.handlerN-a.handlerN
	sSum := b.metrics["serve.request.latency_sec.sum"] - a.metrics["serve.request.latency_sec.sum"]
	sN := b.metrics["serve.request.latency_sec.count"] - a.metrics["serve.request.latency_sec.count"]
	if hN > 0 && sN > 0 {
		meas.set("fleet.replica_ms", ms(hSum)/float64(hN)-sSum*1000/sN,
			fmt.Sprintf("mean replica handler time (%d requests) minus mean serve.request.latency_sec (%.0f)", hN, sN))
	} else {
		meas.set("fleet.replica_ms", 0, "no requests measured")
	}
	pSum := b.metrics["fleet.router.proxy.latency_sec.sum"] - a.metrics["fleet.router.proxy.latency_sec.sum"]
	pN := b.metrics["fleet.router.proxy.latency_sec.count"] - a.metrics["fleet.router.proxy.latency_sec.count"]
	meas.set("fleet.router.proxy_ms", safeDiv(pSum*1000, pN), fmt.Sprintf("mean of %.0f proxied requests", pN))
	lt, lp := tailPercentile(late)
	meas.set("loadgen.late_ms", lt, fmt.Sprintf("generator lateness p%g of %d requests", lp, len(late)))

	// Window-wide deltas: the cold path is too sparse for one step.
	w0, w1 := tr.samples[0].metrics, tr.samples[len(tr.samples)-1].metrics
	d := func(name string) float64 { return w1[name] - w0[name] }
	meas.set("serve.queue_wait_s", safeDiv(d("serve.queue.wait_sec.sum"), d("serve.queue.wait_sec.count")),
		fmt.Sprintf("mean of %.0f searches started in the window", d("serve.queue.wait_sec.count")))
	meas.set("serve.search_run_s", safeDiv(d("serve.search.duration_sec.sum"), d("serve.search.duration_sec.count")),
		fmt.Sprintf("mean of %.0f searches finished in the window", d("serve.search.duration_sec.count")))
	coalesced, started := d("serve.searches.coalesced"), d("serve.searches.started")
	meas.set("serve.coalesce.hit_ratio", safeDiv(coalesced, coalesced+started),
		fmt.Sprintf("%.0f coalesced of %.0f submits", coalesced, coalesced+started))
	meas.set("fleet.push.ok", d("fleet.push.ok"), "replication pushes in the window")
	meas.set("fleet.push.fail", d("fleet.push.fail"), "replication pushes in the window")

	fp, n := fingerprintCost(rs)
	meas.set("serve.fingerprint_us", fp, fmt.Sprintf("Request.Normalize + Fingerprint, median of %d", n))
}

// fingerprintCost times Request.Normalize plus Request.Fingerprint on the
// workload's request bodies — the work handleSubmit redoes on every
// submit, hits included.
func fingerprintCost(rs requestSeeds) (float64, int) {
	var us []float64
	bodies := make([]string, 0, warmCount+4)
	for i := 0; i < warmCount; i++ {
		bodies = append(bodies, rs.warmBody(i))
	}
	for i := 0; i < 4; i++ {
		bodies = append(bodies, rs.coldBody(0, i))
	}
	for rep := 0; rep < 25; rep++ {
		for _, b := range bodies {
			var req serve.Request
			if err := json.Unmarshal([]byte(b), &req); err != nil {
				continue
			}
			start := time.Now()
			if req.Normalize() != nil {
				continue
			}
			if _, err := req.Fingerprint(); err != nil {
				continue
			}
			us = append(us, float64(time.Since(start))/float64(time.Microsecond))
		}
	}
	return median(us), len(us)
}
