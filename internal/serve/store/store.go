// Package store implements the mapd daemon's fingerprint-keyed result
// store.
//
// A mapping search is a pure function of its fingerprint — algorithm,
// program, machine, seed, measurement protocol, and budget (see
// checkpoint.Snapshot.Fingerprint) — so its result can be computed once and
// served forever. The store exploits that three ways:
//
//   - Coalescing: concurrent requests for the same fingerprint share one
//     entry; exactly one caller becomes the owner and runs the search,
//     everyone else observes the same entry (Begin).
//   - Persistence: completed results are written atomically (temp + sync +
//     rename, the checkpoint discipline) and reloaded on restart, so a
//     restarted daemon serves past results from disk without recomputing.
//   - Resumability: an entry that was accepted but not completed — the
//     daemon was drained or crashed mid-search — is surfaced as Suspended
//     after a restart, alongside whatever search checkpoint and event
//     prefix the interrupted run left behind, so the daemon can resume it.
//
// The store deals in opaque bytes (request and result documents, NDJSON
// event lines); what they mean belongs to package serve.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"automap/internal/fsatomic"
)

// Status is the lifecycle state of one entry.
type Status string

// Entry lifecycle: Queued (accepted, waiting for a worker slot) → Running →
// Done or Failed. Suspended entries were interrupted before completing —
// by a drain or a crash — and wait for the daemon to resume them.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusSuspended Status = "suspended"
)

// Finished reports whether the status is terminal (Done or Failed).
func (s Status) Finished() bool { return s == StatusDone || s == StatusFailed }

// resultFile is the persisted terminal state of an entry. Result holds the
// result document as a JSON string rather than an embedded raw value: the
// marshaler re-indents embedded values, and the store's contract is that
// result bytes survive a save/reload round trip exactly.
type resultFile struct {
	Status Status `json:"status"`
	Error  string `json:"error,omitempty"`
	Result string `json:"result,omitempty"`
}

// Entry is one fingerprint-keyed search.
type Entry struct {
	// Key is the search fingerprint.
	Key string

	st *Store

	mu      sync.Mutex
	status  Status
	request []byte
	result  []byte
	errMsg  string
	done    chan struct{}
	events  *EventLog
	// rendered keeps the renderings of the terminal state, by slot (see
	// Render).
	rendered map[int][]byte
}

// Status returns the entry's current lifecycle state.
func (e *Entry) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Request returns the persisted request document.
func (e *Entry) Request() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.request
}

// Result returns the result document and error message; ok reports a
// terminal entry (Done or Failed).
func (e *Entry) Result() (result []byte, errMsg string, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.result, e.errMsg, e.status.Finished()
}

// Render returns what render makes of the entry's state (status, result
// document and error message, read under one lock). A terminal state never
// changes, so its rendering is kept per slot for the entry's lifetime and
// render runs once per slot; an unfinished state is rendered on every call.
// render runs under the entry's lock: it must not call back into the entry.
func (e *Entry) Render(slot int, render func(Status, []byte, string) []byte) []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	if data, ok := e.rendered[slot]; ok {
		return data
	}
	data := render(e.status, e.result, e.errMsg)
	if e.status.Finished() {
		if e.rendered == nil {
			e.rendered = make(map[int][]byte)
		}
		e.rendered[slot] = data
	}
	return data
}

// Done returns a channel closed when the entry reaches a terminal state.
// A suspended entry's channel stays open: the search is not finished, it
// is waiting to be resumed.
func (e *Entry) Done() <-chan struct{} { return e.done }

// Events returns the entry's live event log. Resume installs a fresh log,
// so callers snapshot it once rather than re-fetching mid-stream.
func (e *Entry) Events() *EventLog {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events
}

// Start marks the entry Running. Only the owner returned by Begin (or
// Resume) calls the lifecycle transitions.
func (e *Entry) Start() {
	e.mu.Lock()
	e.status = StatusRunning
	e.mu.Unlock()
}

// Complete persists the result document atomically and marks the entry
// Done, waking all waiters and closing the event log.
func (e *Entry) Complete(result []byte) error {
	return e.finish(resultFile{Status: StatusDone, Result: string(result)})
}

// Fail persists the failure atomically and marks the entry Failed. The
// search stack is deterministic, so retrying a failed fingerprint would
// fail identically; failures are results too and are served as such.
func (e *Entry) Fail(errMsg string) error {
	return e.finish(resultFile{Status: StatusFailed, Error: errMsg})
}

// finish persists rf and applies it to the in-memory entry.
func (e *Entry) finish(rf resultFile) error {
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("store: marshal result %s: %w", e.Key, err)
	}
	if err := writeAtomic(e.st.resultPath(e.Key), data); err != nil {
		return err
	}
	e.mu.Lock()
	e.status = rf.Status
	e.result = resultBytes(rf)
	e.errMsg = rf.Error
	close(e.done)
	log := e.events
	e.mu.Unlock()
	log.Close()
	return nil
}

// Suspend marks a not-yet-finished entry Suspended — the daemon is
// draining, or the entry never got a worker slot — and closes the event
// log so streaming clients finish. The Done channel stays open; the search
// checkpoint (if the driver wrote one) stays on disk for the resume.
func (e *Entry) Suspend() {
	e.mu.Lock()
	if !e.status.Finished() {
		e.status = StatusSuspended
	}
	log := e.events
	e.mu.Unlock()
	log.Close()
}

// resultBytes converts a result file's document back to bytes; an absent
// document (failures) stays nil.
func resultBytes(rf resultFile) []byte {
	if rf.Result == "" {
		return nil
	}
	return []byte(rf.Result)
}

// Store is a fingerprint-keyed result store backed by a directory.
type Store struct {
	dir string

	mu        sync.Mutex
	entries   map[string]*Entry
	writeHook func()
}

// SetEventWriteHook installs f as the write hook on every event log the
// store creates from now on (see EventLog.SetWriteHook). Testing seam:
// installing the hook before a request arrives is the only way to have it
// cover the search's very first telemetry write.
func (s *Store) SetEventWriteHook(f func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.writeHook = f
}

// newEventLog returns a fresh log carrying the store's write hook.
// Caller holds s.mu.
func (s *Store) newEventLog() *EventLog {
	l := NewEventLog()
	if s.writeHook != nil {
		l.SetWriteHook(s.writeHook)
	}
	return l
}

// File layout inside the store directory, per fingerprint key.
const (
	reqSuffix    = ".req.json"
	resultSuffix = ".result.json"
	ckptSuffix   = ".ckpt"
	eventsSuffix = ".events.jsonl"
)

// Open opens (creating if needed) the store rooted at dir and loads every
// persisted entry: requests with a result file come back Done or Failed
// with the result and event stream preloaded; requests without one come
// back Suspended, ready to be resumed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, entries: make(map[string]*Entry)}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		if !strings.HasSuffix(name, reqSuffix) {
			continue
		}
		key := strings.TrimSuffix(name, reqSuffix)
		req, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		e := &Entry{
			Key:     key,
			st:      s,
			status:  StatusSuspended,
			request: req,
			done:    make(chan struct{}),
			events:  NewEventLog(),
		}
		if data, err := os.ReadFile(s.resultPath(key)); err == nil {
			var rf resultFile
			if err := json.Unmarshal(data, &rf); err != nil {
				return nil, fmt.Errorf("store: parsing %s: %w", s.resultPath(key), err)
			}
			if !rf.Status.Finished() {
				return nil, fmt.Errorf("store: %s records non-terminal status %q", s.resultPath(key), rf.Status)
			}
			e.status = rf.Status
			e.result = resultBytes(rf)
			e.errMsg = rf.Error
			close(e.done)
			if ev, err := os.ReadFile(s.EventsPath(key)); err == nil {
				e.events.Write(ev)
			}
			e.events.Close()
		} else if !errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("store: %w", err)
		}
		s.entries[key] = e
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// CheckpointPath returns where the driver's search checkpoint for key
// lives; the store itself never reads it.
func (s *Store) CheckpointPath(key string) string {
	return filepath.Join(s.dir, key+ckptSuffix)
}

// EventsPath returns where the persisted event stream for key lives.
func (s *Store) EventsPath(key string) string {
	return filepath.Join(s.dir, key+eventsSuffix)
}

// resultPath returns where the terminal result document for key lives.
func (s *Store) resultPath(key string) string {
	return filepath.Join(s.dir, key+resultSuffix)
}

// Get returns the entry for key, if any.
func (s *Store) Get(key string) (*Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e, ok
}

// List returns all entries in key order.
func (s *Store) List() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Begin coalesces a request onto the entry for key. If the key is new, the
// request document is persisted atomically, a Queued entry is created, and
// owner is true: the caller must drive the entry through its lifecycle
// (Start + Complete/Fail, or Suspend). Otherwise the existing entry is
// returned with owner false — the search is already running, finished, or
// awaiting resume; nothing new starts.
func (s *Store) Begin(key string, request []byte) (e *Entry, owner bool, err error) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		return e, false, nil
	}
	e = &Entry{
		Key:     key,
		st:      s,
		status:  StatusQueued,
		request: append([]byte(nil), request...),
		done:    make(chan struct{}),
		events:  s.newEventLog(),
	}
	s.entries[key] = e
	s.mu.Unlock()
	// Persist outside the store lock: the write is per-key and the entry
	// is already visible, so coalesced requests don't block on the disk.
	if err := writeAtomic(filepath.Join(s.dir, key+reqSuffix), e.request); err != nil {
		// Roll back so a later request can retry the accept.
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
		return nil, false, err
	}
	return e, true, nil
}

// ErrInFlight reports an Install against a key this store is actively
// searching (or holding for resume); replicated bytes must never clobber
// a live local search's files.
var ErrInFlight = errors.New("store: entry is in flight locally")

// Install creates a finished entry for key from replicated bytes — the
// request document, the terminal status, the result document or error
// message, and the full persisted event stream — and persists all three
// files with the store's atomic-write discipline. It is the receiving
// half of fleet result replication (gossip push and pull-on-miss): the
// search ran elsewhere, this store only records its outcome.
//
// Install is idempotent: a key that is already finished locally returns
// the existing entry untouched (determinism guarantees the bytes agree).
// A key that is queued, running, or suspended locally returns
// ErrInFlight.
func (s *Store) Install(key string, request []byte, status Status, result []byte, errMsg string, events []byte) (*Entry, error) {
	if !status.Finished() {
		return nil, fmt.Errorf("store: install %s with non-terminal status %q", key, status)
	}
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.mu.Unlock()
		if e.Status().Finished() {
			return e, nil
		}
		return nil, fmt.Errorf("%w: %s", ErrInFlight, key)
	}
	e := &Entry{
		Key:     key,
		st:      s,
		status:  status,
		request: append([]byte(nil), request...),
		result:  append([]byte(nil), result...),
		errMsg:  errMsg,
		done:    make(chan struct{}),
		events:  NewEventLog(),
	}
	if len(result) == 0 {
		e.result = nil
	}
	e.events.Write(events)
	e.events.Close()
	close(e.done)
	s.entries[key] = e
	s.mu.Unlock()

	// Persist outside the lock, result file last: on reload, a request
	// without a result file surfaces as Suspended, so a crash between the
	// writes under-reports (re-replicable) rather than fabricating state.
	if err := writeAtomic(filepath.Join(s.dir, key+reqSuffix), e.request); err != nil {
		s.rollbackInstall(key)
		return nil, err
	}
	if len(events) > 0 {
		if err := writeAtomic(s.EventsPath(key), events); err != nil {
			s.rollbackInstall(key)
			return nil, err
		}
	}
	rf := resultFile{Status: status, Error: errMsg, Result: string(result)}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		s.rollbackInstall(key)
		return nil, fmt.Errorf("store: marshal result %s: %w", key, err)
	}
	if err := writeAtomic(s.resultPath(key), data); err != nil {
		s.rollbackInstall(key)
		return nil, err
	}
	return e, nil
}

// rollbackInstall forgets a partially installed entry so a later Install
// (or a real search) can retry the key.
func (s *Store) rollbackInstall(key string) {
	s.mu.Lock()
	delete(s.entries, key)
	s.mu.Unlock()
}

// Resume claims a Suspended entry for resumption: it flips it to Queued
// and returns true exactly once per suspension, making the caller the
// owner. Entries in any other state are left alone.
func (s *Store) Resume(key string) (*Entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	var log *EventLog
	if ok {
		log = s.newEventLog()
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.status != StatusSuspended {
		return e, false
	}
	e.status = StatusQueued
	// Readers of the pre-resume (empty) log see it end; the resumed run
	// preloads the persisted prefix into the fresh log before appending.
	e.events.Close()
	e.events = log
	return e, true
}

// writeAtomic writes data to path with the shared crash-safety discipline
// (fsatomic.WriteFile: temp + sync + rename), wrapping errors with the
// store's prefix.
func writeAtomic(path string, data []byte) error {
	if err := fsatomic.WriteFile(path, data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
