// Replica: one mapd daemon wired into the fleet.
//
// A Replica wraps a serve.Server with the cluster-facing half of the
// design (see the package comment): it pushes checkpoint and result
// bundles for the fingerprints it runs to their ring successors, stages
// bundles pushed to it, adopts a staged search when traffic for a dead
// owner's fingerprint arrives, and pulls finished results it is missing
// from its peers so any replica can serve any completed search.
//
// Internal endpoints (mounted next to the public API):
//
//	POST /v1/internal/replicate    accept a pushed bundle
//	GET  /v1/internal/result/{id}  serve a locally finished search as a
//	                               result bundle (pull-on-miss source)

package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"automap/internal/fsatomic"
	"automap/internal/serve"
	"automap/internal/serve/store"
	"automap/internal/telemetry"
)

// ReplicaConfig parameterizes one fleet member.
type ReplicaConfig struct {
	// Name is this replica's fleet-wide name; it must appear in Peers.
	Name string
	// Peers maps every replica name (including this one) to its base
	// URL. All members must agree on this set — placement is computed
	// locally from it.
	Peers map[string]string
	// Dir is the store directory; Searches bounds concurrent searches
	// (both as in serve.Config).
	Dir      string
	Searches int
	// Client performs replication and pull requests; nil means a client
	// with a 30s timeout.
	Client *http.Client
}

// Replica is a fleet member: the daemon plus its replication agent.
type Replica struct {
	cfg    ReplicaConfig
	srv    *serve.Server
	ring   *Ring
	client *http.Client
	base   http.Handler
	mux    *http.ServeMux

	// stagedDir holds the checkpoint bundles staged for adoption, one
	// file per fingerprint. The files are the only record: a bundle is
	// adoptable exactly when its file is visible, and a restarted backup
	// still holds them.
	stagedDir string
	// afterStageWrite, when non-nil, runs in stage once the bundle file
	// is visible. Tests set it to land a submit inside stage.
	afterStageWrite func(key string)

	// adoptMu serializes the adopt/pull phase of concurrent submissions.
	// Without it a duplicate submit can reach the daemon and begin a
	// fresh search while another request's adopt is mid-write — the fresh
	// search's event file then loses to the adopt's atomic rename, and
	// the resumed-from-nothing run breaks the event-stream byte-identity
	// the fleet promises. TestFleetFailover's concurrent duplicates catch
	// exactly this.
	adoptMu sync.Mutex

	// pushCh carries fingerprints whose state should be (re)pushed to
	// their backup. Sends are non-blocking: a dropped nudge is retried
	// by the next checkpoint write.
	pushCh chan string
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mPushOK    *telemetry.Counter
	mPushFail  *telemetry.Counter
	mStaged    *telemetry.Counter
	mReclaimed *telemetry.Counter
	mPulled    *telemetry.Counter
	mInstalled *telemetry.Counter
}

// NewReplica builds the daemon and its fleet agent. Callers serve
// Handler() and must Close() after draining the returned Server.
func NewReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fleet: replica needs a name")
	}
	if _, ok := cfg.Peers[cfg.Name]; !ok {
		return nil, fmt.Errorf("fleet: replica %q is not among its peers", cfg.Name)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rep := &Replica{
		cfg:       cfg,
		ring:      NewRing(Vnodes),
		client:    cfg.Client,
		stagedDir: filepath.Join(cfg.Dir, "fleet"),
		pushCh:    make(chan string, 256),
		ctx:       ctx,
		cancel:    cancel,
	}
	if rep.client == nil {
		rep.client = &http.Client{Timeout: 30 * time.Second}
	}
	//mapvet:unordered ring membership is order-insensitive (points are sorted by hash)
	for name := range cfg.Peers {
		rep.ring.Add(name)
	}
	srv, err := serve.NewServer(serve.Config{
		Dir:          cfg.Dir,
		Searches:     cfg.Searches,
		Replica:      cfg.Name,
		OnCheckpoint: rep.nudge,
		OnFinished:   rep.nudge,
		BeforeBegin:  rep.reclaim,
	})
	if err != nil {
		cancel()
		return nil, err
	}
	rep.srv = srv
	reg := srv.Metrics()
	rep.mPushOK = reg.Counter("fleet.push.ok")
	rep.mPushFail = reg.Counter("fleet.push.fail")
	rep.mStaged = reg.Counter("fleet.staged")
	rep.mReclaimed = reg.Counter("fleet.reclaimed")
	rep.mPulled = reg.Counter("fleet.pulled")
	rep.mInstalled = reg.Counter("fleet.installed")
	rep.base = srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/internal/replicate", rep.handleReplicate)
	mux.HandleFunc("GET /v1/internal/result/{id}", rep.handleInternalResult)
	mux.Handle("/", http.HandlerFunc(rep.handleDefault))
	rep.mux = mux
	rep.wg.Add(1)
	go func() {
		defer rep.wg.Done()
		rep.pushLoop()
	}()
	return rep, nil
}

// Server exposes the wrapped daemon (drain, store, metrics).
func (r *Replica) Server() *serve.Server { return r.srv }

// Handler returns the replica's HTTP handler: the fleet endpoints plus
// the daemon's API with pull-on-miss and adoption interception.
func (r *Replica) Handler() http.Handler { return r.mux }

// Close stops the replication agent. Call after the daemon has drained —
// pending pushes are abandoned (the fingerprint's next owner re-pulls or
// the restarted daemon re-pushes).
func (r *Replica) Close() {
	r.cancel()
	r.wg.Wait()
}

// nudge marks a fingerprint dirty for the push loop. Non-blocking by
// design: it is called from the search goroutine with driver locks held.
func (r *Replica) nudge(key string) {
	select {
	case r.pushCh <- key:
	default:
	}
}

// pushLoop replicates dirty fingerprints until Close.
func (r *Replica) pushLoop() {
	for {
		select {
		case <-r.ctx.Done():
			return
		case key := <-r.pushCh:
			r.push(key)
		}
	}
}

// push replicates key's current state — a checkpoint bundle while the
// search runs, a result bundle once it is terminal — to the first live
// ring successor that is not this replica. Failures are logged and
// dropped: the next checkpoint or a peer's pull-on-miss retries.
func (r *Replica) push(key string) {
	b, err := r.bundleFor(key)
	if err != nil || b == nil {
		return
	}
	data, err := b.Encode()
	if err != nil {
		log.Printf("fleet[%s]: encoding bundle %s: %v", r.cfg.Name, key, err)
		return
	}
	// OwnerN(key, 3): the owner, its backup, and the backup's backup.
	// Normally this replica is the owner and the bundle lands on the
	// backup; after an adoption the ring (which still lists the dead
	// peer) may put the dead owner first, so walk until a live peer
	// accepts.
	for _, name := range r.ring.OwnerN(key, 3) {
		if name == r.cfg.Name {
			continue
		}
		if r.pushTo(name, data) {
			r.mPushOK.Add(1)
			return
		}
	}
	r.mPushFail.Add(1)
}

// pushTo POSTs an encoded bundle to one peer.
func (r *Replica) pushTo(name string, data []byte) bool {
	url, ok := r.cfg.Peers[name]
	if !ok {
		return false
	}
	req, err := http.NewRequestWithContext(r.ctx, http.MethodPost,
		url+"/v1/internal/replicate", bytes.NewReader(data))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode < 300
}

// bundleFor snapshots key's replicable state from the store. A nil
// bundle with nil error means there is nothing to replicate (yet).
func (r *Replica) bundleFor(key string) (*Bundle, error) {
	st := r.srv.Store()
	e, ok := st.Get(key)
	if !ok {
		return nil, nil
	}
	if b, err := resultBundle(st, e); b != nil || err != nil {
		return b, err
	}
	events, err := os.ReadFile(st.EventsPath(key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	ckpt, err := os.ReadFile(st.CheckpointPath(key))
	if err != nil {
		return nil, nil // no checkpoint yet; the next write renudges
	}
	return &Bundle{
		Key:        key,
		Kind:       KindCheckpoint,
		Request:    e.Request(),
		Checkpoint: ckpt,
		Events:     completeLines(events),
	}, nil
}

// resultBundle builds the result bundle of a finished entry: its terminal
// status, result and persisted event stream. It returns nil with a nil
// error while the search is still running.
func resultBundle(st *store.Store, e *store.Entry) (*Bundle, error) {
	result, errMsg, done := e.Result()
	if !done {
		return nil, nil
	}
	events, err := os.ReadFile(st.EventsPath(e.Key))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	return &Bundle{
		Key:     e.Key,
		Kind:    KindResult,
		Request: e.Request(),
		Status:  string(e.Status()),
		Result:  result,
		Error:   errMsg,
		Events:  completeLines(events),
	}, nil
}

// handleReplicate accepts a pushed bundle: result bundles install into
// the store, checkpoint bundles stage for adoption. Corrupt payloads are
// 400s, never panics.
func (r *Replica) handleReplicate(w http.ResponseWriter, req *http.Request) {
	data, err := io.ReadAll(io.LimitReader(req.Body, maxBundleBytes))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b, err := DecodeBundle(data)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch b.Kind {
	case KindResult:
		if err := r.install(b); err != nil {
			if errors.Is(err, store.ErrInFlight) {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	case KindCheckpoint:
		if e, ok := r.srv.Store().Get(b.Key); ok && e.Status().Finished() {
			break // stale: the search already finished here
		}
		if err := r.stage(b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// maxBundleBytes bounds a replicated payload: a request document, a
// checkpoint (measurement log), and an event stream for the bundled
// search sizes fit comfortably in 64 MiB.
const maxBundleBytes = 64 << 20

// install applies a result bundle to the local store and drops any staled
// staged checkpoint for the key.
func (r *Replica) install(b *Bundle) error {
	_, err := r.srv.Store().Install(b.Key, b.Request, store.Status(b.Status), b.Result, b.Error, b.Events)
	if err != nil {
		return err
	}
	r.mInstalled.Add(1)
	os.Remove(r.stagedPath(b.Key))
	return nil
}

// stagedSuffix names staged bundles inside stagedDir.
const stagedSuffix = ".bundle.json"

// stagedPath is the file a checkpoint bundle for key is staged in.
func (r *Replica) stagedPath(key string) string {
	return filepath.Join(r.stagedDir, key+stagedSuffix)
}

// stage writes a checkpoint bundle to disk so this replica can adopt the
// search if its owner dies — even across its own restart. The atomic
// write is the whole hand-off: adopt reads the same file.
func (r *Replica) stage(b *Bundle) error {
	data, err := b.Encode()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.stagedDir, 0o755); err != nil {
		return err
	}
	if err := fsatomic.WriteFile(r.stagedPath(b.Key), data); err != nil {
		return err
	}
	if r.afterStageWrite != nil {
		r.afterStageWrite(b.Key)
	}
	r.mStaged.Add(1)
	return nil
}

// adopt reclaims a staged search: it materializes the replicated
// checkpoint and event prefix into the store's paths for the key, so the
// submit that follows resumes the search exactly where the dead owner's
// last replicated snapshot left it. Consuming the staged file makes the
// reclaim exactly-once per staging: reclaim serializes adopts under
// adoptMu, one wins the file, the rest fall through to plain coalescing.
// An unreadable bundle is discarded — the owner may still be alive and
// will re-push.
func (r *Replica) adopt(key string) {
	path := r.stagedPath(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	b, err := DecodeBundle(data)
	if err != nil || b.Kind != KindCheckpoint || b.Key != key {
		os.Remove(path)
		return
	}
	st := r.srv.Store()
	if err := fsatomic.WriteFile(st.CheckpointPath(key), b.Checkpoint); err != nil {
		log.Printf("fleet[%s]: adopting %s: %v", r.cfg.Name, key, err)
		return
	}
	if len(b.Events) > 0 {
		if err := fsatomic.WriteFile(st.EventsPath(key), b.Events); err != nil {
			log.Printf("fleet[%s]: adopting %s: %v", r.cfg.Name, key, err)
			return
		}
	}
	os.Remove(path)
	r.mReclaimed.Add(1)
}

// tryPull fetches a finished result for key from peers (ring order, owner
// first) and installs it locally. Returns true when the key is now
// servable locally.
func (r *Replica) tryPull(key string) bool {
	if !ValidKey(key) {
		return false
	}
	tried := make(map[string]bool)
	for _, name := range append(r.ring.OwnerN(key, r.ring.Len()), r.ring.Members()...) {
		if name == r.cfg.Name || tried[name] {
			continue
		}
		tried[name] = true
		if r.pullFrom(name, key) {
			r.mPulled.Add(1)
			return true
		}
	}
	return false
}

// pullFrom fetches and installs one peer's result bundle for key.
func (r *Replica) pullFrom(name, key string) bool {
	url, ok := r.cfg.Peers[name]
	if !ok {
		return false
	}
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet,
		url+"/v1/internal/result/"+key, nil)
	if err != nil {
		return false
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBundleBytes))
	if err != nil {
		return false
	}
	b, err := DecodeBundle(data)
	if err != nil || b.Kind != KindResult || b.Key != key {
		return false
	}
	return r.install(b) == nil
}

// handleInternalResult serves a locally finished search as a result
// bundle — the pull-on-miss source.
func (r *Replica) handleInternalResult(w http.ResponseWriter, req *http.Request) {
	key := req.PathValue("id")
	st := r.srv.Store()
	e, ok := st.Get(key)
	if !ok {
		http.Error(w, "unknown search", http.StatusNotFound)
		return
	}
	b, err := resultBundle(st, e)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if b == nil {
		http.Error(w, "search not finished", http.StatusConflict)
		return
	}
	data, err := b.Encode()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// reclaim runs in the daemon's submit path for a fingerprint its store
// does not hold: it adopts a staged search for the key (the owner died and
// this replica inherited it) or pulls the finished result a peer already
// holds (ring topology changed after completion). Either way the daemon's
// own coalescing then does the rest.
func (r *Replica) reclaim(key string) {
	r.adoptMu.Lock()
	defer r.adoptMu.Unlock()
	if _, ok := r.srv.Store().Get(key); !ok {
		r.adopt(key)
	}
	if _, ok := r.srv.Store().Get(key); !ok {
		r.tryPull(key)
	}
}

// handleDefault intercepts reads for unknown fingerprints with
// pull-on-miss, then delegates everything to the daemon.
func (r *Replica) handleDefault(w http.ResponseWriter, req *http.Request) {
	if req.Method == http.MethodGet {
		if key, ok := searchPathKey(req.URL.Path); ok {
			if _, have := r.srv.Store().Get(key); !have {
				r.tryPull(key)
			}
		}
	}
	r.base.ServeHTTP(w, req)
}

// searchPathKey extracts the fingerprint from /v1/search/{id}[/...].
func searchPathKey(path string) (string, bool) {
	rest, ok := strings.CutPrefix(path, "/v1/search/")
	if !ok || rest == "" {
		return "", false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}
