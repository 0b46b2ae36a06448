// Package serve implements mapd: mapping-as-a-service over the AutoMap
// search stack.
//
// The daemon accepts search requests over HTTP/JSON, runs them on a
// bounded pool of concurrent searches, and keys every result by the
// request's search fingerprint (see Request.Fingerprint). Because the
// search stack is deterministic, the fingerprint fully determines the
// result, which buys the daemon three properties for free:
//
//   - Duplicate requests coalesce: the first request for a fingerprint
//     starts the search, every concurrent or later duplicate attaches to
//     the same store entry and observes the same result bytes.
//   - Results are cacheable forever: completed searches persist to the
//     store directory and are served across restarts without recomputing.
//   - Shutdown is a checkpoint, not a loss: draining cancels in-flight
//     searches through their budget contexts, the driver writes its final
//     snapshot, and a restarted daemon resumes each suspended search from
//     that snapshot — converging to the byte-identical result an
//     uninterrupted run would have produced.
//
// Endpoints:
//
//	POST /v1/search              submit (or coalesce onto) a search
//	GET  /v1/search/{id}         status and, when finished, the result
//	GET  /v1/search/{id}/events  live NDJSON telemetry stream
//	GET  /v1/search/{id}/spans   live NDJSON serve-side span stream
//	GET  /v1/search/{id}/explain makespan attribution of the winning mapping
//	GET  /v1/searches            all known searches
//	GET  /metrics                daemon metrics (Prometheus text exposition)
//	GET  /healthz                liveness
//
// DebugHandler serves net/http/pprof on a separate, operator-only
// listener (mapd -debug-addr); profiling endpoints never share the
// public API mux.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"automap/internal/checkpoint"
	"automap/internal/driver"
	"automap/internal/explain"
	"automap/internal/mapping"
	"automap/internal/serve/store"
	"automap/internal/telemetry"
)

// Version identifies the daemon build in the build_info metric; release
// tooling overrides it at link time (-ldflags "-X .../serve.Version=...").
var Version = "dev"

// Config parameterizes a daemon. The zero value plus Dir is a working
// standalone daemon; the fleet fields wire a replica into a cluster.
type Config struct {
	// Dir is the result store directory.
	Dir string
	// Searches bounds concurrently running searches (<= 0: half of
	// GOMAXPROCS, at least 1). A search measures one candidate at a time
	// on its own goroutine, so this is the daemon's simulation
	// parallelism.
	Searches int
	// Replica, when non-empty, names this daemon inside a fleet. The
	// name is stamped onto every Prometheus sample as a replica label
	// and echoed on every response as an X-Mapd-Replica header; the
	// deterministic per-search event streams never carry it.
	Replica string
	// OnCheckpoint, when set, runs after each successful search
	// checkpoint write for the given fingerprint key. It is called on
	// the search goroutine with driver locks held — return fast; the
	// fleet uses it to nudge its asynchronous checkpoint replicator.
	OnCheckpoint func(key string)
	// OnFinished, when set, runs once per search that reaches a terminal
	// state (Done or Failed) in this process, after the result is
	// persisted. The fleet uses it to push the finished result to the
	// fingerprint's backup replica.
	OnFinished func(key string)
	// BeforeBegin, when set, runs in a submit whose fingerprint the store
	// does not hold yet, before the daemon begins a search for it. The
	// fleet uses it to adopt a staged search or pull a peer's finished
	// result for the key first, so the submit resumes or serves it.
	BeforeBegin func(key string)
}

// Server is the mapd daemon: an HTTP handler plus the search worker pool
// behind it.
type Server struct {
	cfg Config
	st  *store.Store
	reg *telemetry.Registry
	mux *http.ServeMux
	fp  *FingerprintCache

	// draining flips once, when Drain starts: /healthz turns 503 so a
	// fleet router ejects the replica before its searches suspend.
	draining atomic.Bool

	// sem bounds concurrently running searches; queued searches hold a
	// goroutine but no slot.
	sem chan struct{}

	// baseCtx flows into every search budget; baseCancel is the drain
	// signal.
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// clock is the daemon's single wall-clock source; every serve-side
	// span and latency observation reads it. Deterministic search spans
	// never touch it — they carry the simulated search clock instead.
	clock telemetry.Clock
	// reqSeq numbers incoming requests for span trace-correlation IDs.
	reqSeq atomic.Int64

	// spans holds each entry's serve-side span stream (wall-clock spans:
	// request handling, queue wait, the search run), kept out of the
	// deterministic per-search event file.
	spansMu sync.Mutex
	spans   map[string]*spanLog

	mRequests  *telemetry.Counter
	mStarted   *telemetry.Counter
	mCoalesced *telemetry.Counter
	mResumed   *telemetry.Counter
	mCompleted *telemetry.Counter
	mFailed    *telemetry.Counter
	mSuspended *telemetry.Counter
	mCkptSkew  *telemetry.Counter

	hReqLatency *telemetry.Histogram
	hQueueWait  *telemetry.Histogram
	hSearchDur  *telemetry.Histogram
	gOccupancy  *telemetry.Gauge
	gCapacity   *telemetry.Gauge
	gHitRatio   *telemetry.Gauge
}

// Histogram bucket bounds (seconds). Request latency spans sub-millisecond
// cache hits through multi-second submissions; queue wait and search
// duration stretch further right because a busy pool parks searches for
// minutes.
var (
	reqLatencyBounds = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	queueWaitBounds  = []float64{0.001, 0.01, 0.1, 0.5, 1, 5, 10, 60, 300, 1800}
	searchDurBounds  = []float64{0.01, 0.1, 0.5, 1, 5, 10, 30, 60, 300, 1800, 7200}
)

// New returns a standalone daemon over the store directory dir running at
// most `searches` concurrent searches; see NewServer for the full
// configuration surface.
func New(dir string, searches int) (*Server, error) {
	return NewServer(Config{Dir: dir, Searches: searches})
}

// NewServer returns a daemon built from cfg.
func NewServer(cfg Config) (*Server, error) {
	st, err := store.Open(cfg.Dir)
	if err != nil {
		return nil, err
	}
	searches := cfg.Searches
	if searches <= 0 {
		searches = runtime.GOMAXPROCS(0) / 2
		if searches < 1 {
			searches = 1
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := telemetry.NewRegistry()
	s := &Server{
		cfg:        cfg,
		st:         st,
		reg:        reg,
		fp:         NewFingerprintCache(),
		sem:        make(chan struct{}, searches),
		baseCtx:    ctx,
		baseCancel: cancel,
		clock:      telemetry.WallClock(),
		spans:      make(map[string]*spanLog),

		mRequests:  reg.Counter("serve.requests"),
		mStarted:   reg.Counter("serve.searches.started"),
		mCoalesced: reg.Counter("serve.searches.coalesced"),
		mResumed:   reg.Counter("serve.searches.resumed"),
		mCompleted: reg.Counter("serve.searches.completed"),
		mFailed:    reg.Counter("serve.searches.failed"),
		mSuspended: reg.Counter("serve.searches.suspended"),
		mCkptSkew:  reg.Counter("serve.checkpoint.load_failures"),

		hReqLatency: reg.Histogram("serve.request.latency_sec", reqLatencyBounds),
		hQueueWait:  reg.Histogram("serve.queue.wait_sec", queueWaitBounds),
		hSearchDur:  reg.Histogram("serve.search.duration_sec", searchDurBounds),
		gOccupancy:  reg.Gauge("serve.pool.occupancy"),
		gCapacity:   reg.Gauge("serve.pool.capacity"),
		gHitRatio:   reg.Gauge("serve.coalesce.hit_ratio"),
	}
	s.gCapacity.Set(float64(searches))
	// The embedded-label form survives promName's sanitizer verbatim, so
	// the exposition carries build_info{version="...",goversion="..."} 1.
	reg.Gauge(fmt.Sprintf("build_info{version=%q,goversion=%q}", Version, runtime.Version())).Set(1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSubmit)
	mux.HandleFunc("GET /v1/search/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/search/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/search/{id}/spans", s.handleSpans)
	mux.HandleFunc("GET /v1/search/{id}/explain", s.handleExplain)
	mux.HandleFunc("GET /v1/searches", s.handleList)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler: the API mux wrapped in the
// request-latency middleware. Streaming endpoints record their latency at
// disconnect, so the histogram's right tail is dominated by watchers —
// use the rate of the low buckets for submit/status latency.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.clock()
		if s.cfg.Replica != "" {
			w.Header().Set("X-Mapd-Replica", s.cfg.Replica)
		}
		s.mux.ServeHTTP(w, r)
		s.hReqLatency.Observe(s.clock() - start)
	})
}

// handleHealthz is the router-facing liveness probe. A draining daemon
// answers 503 with a "draining" body so the fleet router ejects it from
// the ring before its in-flight searches suspend; a healthy one answers
// 200 "ok".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// DebugHandler returns the profiling mux (net/http/pprof). It is served
// only on mapd's -debug-addr listener, never registered on the API mux.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Store exposes the result store (tests and tooling).
func (s *Server) Store() *store.Store { return s.st }

// Metrics exposes the daemon's metrics registry.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// ResumePending claims every suspended entry in the store and relaunches
// it, returning how many searches were resumed. A daemon calls it once at
// startup, after a restart following a drain or a crash.
func (s *Server) ResumePending() int {
	n := 0
	for _, e := range s.st.List() {
		e, owner := s.st.Resume(e.Key)
		if !owner {
			continue
		}
		var req Request
		if err := json.Unmarshal(e.Request(), &req); err != nil {
			e.Start()
			e.Fail(fmt.Sprintf("stored request unreadable: %v", err))
			s.mFailed.Add(1)
			continue
		}
		s.mResumed.Add(1)
		s.launch(e, &req, "resume")
		n++
	}
	return n
}

// Drain cancels every in-flight search and waits for all of them to reach
// a stable state: running searches stop cleanly at the driver's next
// cancellation check, write their final checkpoint, and are marked
// Suspended; queued searches suspend without starting. After Drain returns
// the store directory is a complete, restartable image of the daemon.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.baseCancel()
	s.wg.Wait()
}

// launch runs the entry's search on a pool goroutine. The caller must own
// the entry (Begin or Resume returned owner). trace correlates the run's
// serve-side spans with the request that started it ("resume" for
// searches relaunched at startup).
func (s *Server) launch(e *store.Entry, req *Request, trace string) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runSearch(e, req, trace)
	}()
}

// finishSpans closes the entry's serve span stream, waking streaming
// readers. A finished search keeps its closed stream so the spans
// endpoint can snapshot it; a suspended one forgets it (forget=true) so
// the resumed run starts a fresh stream instead of writing into a closed
// one.
func (s *Server) finishSpans(key string, forget bool) {
	s.spansMu.Lock()
	sl, ok := s.spans[key]
	if forget {
		delete(s.spans, key)
	}
	s.spansMu.Unlock()
	if ok {
		sl.close()
	}
}

// runSearch drives one owned entry through its lifecycle: wait for a
// worker slot, run the driver search (resuming from the entry's checkpoint
// when one exists), and finish as Done, Failed, or Suspended.
func (s *Server) runSearch(e *store.Entry, req *Request, trace string) {
	sl := s.spanLog(e.Key)
	runSpan := sl.start(trace, 0, "search_run", req.App+"/"+req.Algorithm)
	suspended := false
	defer func() {
		sl.end(runSpan)
		s.finishSpans(e.Key, suspended)
		// Fleet hook: every terminal outcome — Done or Failed, whichever
		// path produced it — is pushed to the fingerprint's backup.
		if s.cfg.OnFinished != nil && e.Status().Finished() {
			s.cfg.OnFinished(e.Key)
		}
	}()

	queueStart := s.clock()
	queueSpan := sl.start(trace, runSpan, "queue_wait", "")
	select {
	case s.sem <- struct{}{}:
		sl.end(queueSpan)
		s.hQueueWait.Observe(s.clock() - queueStart)
		defer func() { <-s.sem }()
	case <-s.baseCtx.Done():
		// Draining before the search ever got a slot: nothing ran, so
		// there is nothing to checkpoint; the entry suspends as-is.
		sl.end(queueSpan)
		s.mSuspended.Add(1)
		suspended = true
		e.Suspend()
		return
	}
	e.Start()
	fail := func(format string, args ...any) {
		s.mFailed.Add(1)
		e.Fail(fmt.Sprintf(format, args...))
	}

	p, err := req.build()
	if err != nil {
		fail("building search: %v", err)
		return
	}
	ckptPath := s.st.CheckpointPath(e.Key)
	eventsPath := s.st.EventsPath(e.Key)

	// Resume when an earlier run of this fingerprint left a checkpoint
	// behind. The persisted event file is continued through
	// telemetry.ResumeJSONL, exactly as the CLI does: keep the complete
	// lines it holds (a crash can leave a partial tail), suppress that many
	// replayed events, and append the suffix — the final file is
	// byte-identical to an uninterrupted run's.
	skip := 0
	var f *os.File
	var prefix []byte
	if snap, lerr := checkpoint.Load(ckptPath); lerr == nil {
		p.opts.ResumeFrom = snap
		f, skip, prefix, err = telemetry.ResumeJSONL(eventsPath)
	} else {
		if !errors.Is(lerr, fs.ErrNotExist) {
			// Unreadable checkpoint (torn write survived the atomic
			// rename discipline somehow, or version skew from an old
			// build). Determinism makes this harmless: start over.
			s.mCkptSkew.Add(1)
		}
		f, err = os.Create(eventsPath)
	}
	if err != nil {
		fail("opening %s: %v", eventsPath, err)
		return
	}

	// The live event log serves streaming clients; preload the replayed
	// prefix so a client attaching mid-resume still sees the full stream.
	log := e.Events()
	if skip > 0 {
		log.Write(prefix)
	}
	sink := telemetry.NewJSONLSink(io.MultiWriter(f, log))
	sink.SetAutoFlush(true)
	sink.Resume(skip)

	p.opts.Observer = &telemetry.Observer{Sink: sink, Metrics: telemetry.NewRegistry()}
	p.opts.CheckpointPath = ckptPath
	if s.cfg.OnCheckpoint != nil {
		key := e.Key
		p.opts.OnCheckpoint = func() { s.cfg.OnCheckpoint(key) }
	}
	budget := p.budget
	budget.Context = s.baseCtx

	searchStart := s.clock()
	rep, err := driver.SearchFromSpace(p.m, p.g, nil, p.alg, p.opts, budget)
	s.hSearchDur.Observe(s.clock() - searchStart)
	// Fold the search's private metrics registry into the daemon's
	// aggregate. Only terminal outcomes merge: a suspended search replays
	// its counters from scratch on resume, and merging both runs would
	// double-count. The per-search registry itself stays private so the
	// result document's metrics snapshot remains deterministic.
	if err == nil && !rep.Interrupted() {
		s.reg.Merge(p.opts.Observer.Metrics)
	}

	// Flush and close the event file before the entry transitions: its
	// terminal state must never be visible before its stream is complete.
	closeErr := sink.Flush()
	if cerr := f.Close(); cerr != nil && closeErr == nil {
		closeErr = cerr
	}
	switch {
	case err != nil:
		fail("%v", err)
	case rep.Interrupted():
		// Only the drain cancels a daemon search's context; the driver
		// already wrote its final checkpoint, so the entry suspends
		// ready for the next daemon to pick it up.
		s.mSuspended.Add(1)
		suspended = true
		e.Suspend()
	case closeErr != nil:
		fail("writing %s: %v", eventsPath, closeErr)
	default:
		res, err := buildResult(e.Key, req, p, rep)
		if err != nil {
			fail("encoding result: %v", err)
			return
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fail("encoding result: %v", err)
			return
		}
		if err := e.Complete(data); err != nil {
			// Persisting failed; leave the entry resumable rather than
			// durable-looking.
			s.mSuspended.Add(1)
			suspended = true
			e.Suspend()
			return
		}
		s.mCompleted.Add(1)
	}
}

// statusResponse is the wire form of an entry's state.
type statusResponse struct {
	ID        string          `json:"id"`
	Status    store.Status    `json:"status"`
	Coalesced bool            `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

// entryStatus snapshots an entry for the wire.
func entryStatus(e *store.Entry) statusResponse {
	resp := statusResponse{ID: e.Key, Status: e.Status()}
	if result, errMsg, ok := e.Result(); ok {
		resp.Error = errMsg
		resp.Result = result
	}
	return resp
}

// statusDoc returns e's status document as writeJSON encodes it, and
// whether it is a finished one. Both come from one snapshot of the entry,
// so a document is never part unfinished, part finished. A finished
// entry's document is encoded once per coalesced value and kept with the
// entry; an unfinished entry's is encoded per request.
func statusDoc(e *store.Entry, coalesced bool) (doc []byte, finished bool) {
	slot := 0
	if coalesced {
		slot = 1
	}
	finished = true // only a finished entry's document is kept
	doc = e.Render(slot, func(status store.Status, result []byte, errMsg string) []byte {
		finished = status.Finished()
		return encodeJSON(statusResponse{ID: e.Key, Status: status, Coalesced: coalesced, Error: errMsg, Result: result})
	})
	return doc, finished
}

// handleSubmit accepts (or coalesces) a search request. A hit — a body
// fingerprinted before whose entry the store holds — coalesces at the cost
// of a cache lookup and a write of the entry's status document; decoding,
// normalizing, fingerprinting and the canonical request document run only
// on a miss.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Add(1)
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBody))
	if err != nil {
		httpError(w, http.StatusBadRequest, "parsing request: %v", err)
		return
	}
	key, hit := s.fp.lookup(body)
	var e *store.Entry
	if hit {
		e, hit = s.st.Get(key)
	}
	var req Request
	owner := false
	if !hit {
		if req, err = decodeRequest(body); err != nil {
			httpError(w, http.StatusBadRequest, "parsing request: %v", err)
			return
		}
		if err := req.Normalize(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if key, err = req.Fingerprint(); err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.fp.add(body, key)
		canonical, err := json.MarshalIndent(&req, "", "  ")
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if s.cfg.BeforeBegin != nil {
			if _, ok := s.st.Get(key); !ok {
				s.cfg.BeforeBegin(key)
			}
		}
		if e, owner, err = s.st.Begin(key, canonical); err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	// Serve-side spans: one http_request span per submit that resolved to
	// an entry, with the coalescing decision as an instant child, all
	// correlated by a fresh request trace ID. A submit that coalesces onto
	// a search finished in this process writes into its closed stream and
	// drops silently — the stream's byte content is frozen once the run is
	// over, and the spans endpoint serves it as a snapshot.
	trace := fmt.Sprintf("req-%08d", s.reqSeq.Add(1))
	sl := s.spanLog(key)
	reqSpan := sl.start(trace, 0, "http_request", "POST /v1/search")
	if owner {
		sl.instant(trace, reqSpan, "coalesce", "miss")
		s.mStarted.Add(1)
		s.launch(e, &req, trace)
	} else {
		sl.instant(trace, reqSpan, "coalesce", "hit")
		s.mCoalesced.Add(1)
	}
	doc, finished := statusDoc(e, !owner)
	code := http.StatusAccepted
	if finished {
		code = http.StatusOK
	}
	sl.end(reqSpan)
	writeDoc(w, code, doc)
}

// handleStatus reports one search.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	e, ok := s.st.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown search %q", r.PathValue("id"))
		return
	}
	doc, _ := statusDoc(e, false)
	writeDoc(w, http.StatusOK, doc)
}

// handleEvents streams a search's telemetry as NDJSON: everything emitted
// so far immediately, then each new event as the search produces it, until
// the search finishes (or is suspended) or the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.st.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown search %q", r.PathValue("id"))
		return
	}
	streamNDJSON(w, r, e.Events(), func() bool { return false })
}

// handleSpans streams a search's serve-side spans as NDJSON. Live
// searches stream until the run reaches a terminal state (the span log
// closes) or the client disconnects; finished searches get whatever the
// current stream holds as an immediate snapshot.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	e, ok := s.st.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown search %q", r.PathValue("id"))
		return
	}
	// A finished entry's stream never closes (it may be a fresh log
	// created after the run's own stream was retired); serve it as a
	// snapshot rather than blocking a reader forever.
	streamNDJSON(w, r, s.spanLog(e.Key).log, func() bool { return e.Status().Finished() })
}

// streamNDJSON tails log to w: everything so far at once, then each append
// as it arrives, until the log closes, finished reports true once the
// reader has caught up, or the client disconnects.
func streamNDJSON(w http.ResponseWriter, r *http.Request, log *store.EventLog, finished func() bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	off := 0
	for {
		data, closed, changed := log.Next(off)
		if len(data) > 0 {
			if _, err := w.Write(data); err != nil {
				return
			}
			off += len(data)
			if flusher != nil {
				flusher.Flush()
			}
			continue // re-check: more may have arrived while writing
		}
		if closed || finished() {
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleExplain runs the makespan attribution of a finished search's
// winning mapping: the stored request is rebuilt into its machine and
// graph, the stored mapping replayed, and the critical-path report
// returned as JSON.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	e, ok := s.st.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown search %q", r.PathValue("id"))
		return
	}
	result, errMsg, done := e.Result()
	if !done || errMsg != "" || len(result) == 0 {
		httpError(w, http.StatusConflict, "search %s has no result to explain (status %s)", e.Key, e.Status())
		return
	}
	var req Request
	if err := json.Unmarshal(e.Request(), &req); err != nil {
		httpError(w, http.StatusInternalServerError, "stored request unreadable: %v", err)
		return
	}
	var res Result
	if err := json.Unmarshal(result, &res); err != nil {
		httpError(w, http.StatusInternalServerError, "stored result unreadable: %v", err)
		return
	}
	p, err := req.build()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "rebuilding search: %v", err)
		return
	}
	mp, err := mapping.Unmarshal(res.Mapping, p.g)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "replaying mapping: %v", err)
		return
	}
	rep, err := explain.Analyze(p.m, p.g, mp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "analyzing mapping: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleList reports every known search.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.st.List()
	out := make([]statusResponse, 0, len(entries))
	for _, e := range entries {
		st := entryStatus(e)
		st.Result = nil // listings stay small; fetch results individually
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the daemon's metrics registry in Prometheus text
// exposition format. Derived gauges (pool occupancy, coalesce hit ratio)
// are computed at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.gOccupancy.Set(float64(len(s.sem)))
	started, coalesced := s.mStarted.Value(), s.mCoalesced.Value()
	if total := started + coalesced; total > 0 {
		s.gHitRatio.Set(float64(coalesced) / float64(total))
	}
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	if s.cfg.Replica != "" {
		s.reg.WritePrometheusLabeled(w, fmt.Sprintf("replica=%q", s.cfg.Replica))
		return
	}
	s.reg.WritePrometheus(w)
}

// writeJSON writes v as an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	writeDoc(w, code, encodeJSON(v))
}

// encodeJSON encodes v as writeJSON sends it: indented and
// newline-terminated. A value that fails to encode yields no bytes.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

// writeDoc writes an encoded JSON document as the response.
func writeDoc(w http.ResponseWriter, code int, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(doc)
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
