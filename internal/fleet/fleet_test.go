// End-to-end fleet tests: the two acceptance gates of the fleet design.
//
// TestFleetByteIdentity — a result served through a 3-replica fleet
// (including via a replica that never ran the search) is byte-identical
// to a single daemon's.
//
// TestFleetFailover — killing a search's owner mid-run loses nothing: the
// ring successor adopts the replicated checkpoint exactly once, duplicate
// concurrent clients still coalesce onto the adopted search, and the
// final result and event stream match an uninterrupted single-daemon run
// byte for byte.
package fleet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"automap/internal/fleet"
	"automap/internal/serve"
	"automap/internal/serve/store"
)

// statusResponse mirrors the daemon's wire status document.
type statusResponse struct {
	ID        string          `json:"id"`
	Status    store.Status    `json:"status"`
	Coalesced bool            `json:"coalesced"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
}

// quickRequest is the sub-second stencil search the serve tests use.
func quickRequest(seed uint64) string {
	return fmt.Sprintf(`{"app":"stencil","input":"500x500","algorithm":"ccd","seed":%d,"max_suggestions":150,"repeats":3,"final_repeats":3,"final_candidates":3}`, seed)
}

func submit(t *testing.T, url, body string) statusResponse {
	t.Helper()
	resp, err := http.Post(url+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/search = %d (%s)", resp.StatusCode, sr.Error)
	}
	return sr
}

func getStatus(t *testing.T, url, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(url + "/v1/search/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func waitDone(t *testing.T, url, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		sr := getStatus(t, url, id)
		if sr.Status.Finished() {
			return sr
		}
		if time.Now().After(deadline) {
			t.Fatalf("search %s still %s after 120s", id, sr.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// baselineRun produces the single-daemon reference: the result document
// and event stream an uninterrupted standalone mapd serves for body.
func baselineRun(t *testing.T, body string) (id string, result json.RawMessage, events []byte) {
	t.Helper()
	srv, err := serve.New(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	id = submit(t, ts.URL, body).ID
	final := waitDone(t, ts.URL, id)
	if final.Status != store.StatusDone {
		t.Fatalf("baseline ended %s: %s", final.Status, final.Error)
	}
	srv.Drain()
	events, err = os.ReadFile(srv.Store().EventsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	return id, final.Result, events
}

// testFleet is a 3-replica in-process fleet behind a router.
type testFleet struct {
	names   []string
	reps    map[string]*fleet.Replica
	servers map[string]*httptest.Server
	peers   map[string]string
	router  *fleet.Router
	routeTS *httptest.Server
	ring    *fleet.Ring
}

// startFleet boots n replicas on httptest listeners and a router over
// them. Cleanup drains and closes whatever the test has not already
// killed.
func startFleet(t *testing.T, n int) *testFleet {
	t.Helper()
	f := &testFleet{
		reps:    make(map[string]*fleet.Replica),
		servers: make(map[string]*httptest.Server),
		peers:   make(map[string]string),
		ring:    fleet.NewRing(fleet.Vnodes),
	}
	// Listeners first: every replica needs the full peer map.
	listeners := make(map[string]*httptest.Server, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		f.names = append(f.names, name)
		ts := httptest.NewUnstartedServer(nil)
		listeners[name] = ts
		ts.Start()
		f.peers[name] = ts.URL
		f.ring.Add(name)
	}
	dir := t.TempDir()
	for _, name := range f.names {
		rep, err := fleet.NewReplica(fleet.ReplicaConfig{
			Name:     name,
			Peers:    f.peers,
			Dir:      filepath.Join(dir, name),
			Searches: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		f.reps[name] = rep
		ts := listeners[name]
		ts.Config.Handler = rep.Handler()
		f.servers[name] = ts
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Replicas:    f.peers,
		HealthEvery: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.routeTS = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.routeTS.Close()
		rt.Close()
		for _, name := range f.names {
			rep := f.reps[name]
			rep.Server().Drain()
			// A replica the test killed has no listener left to close and
			// its agent is already stopped; Close is idempotent enough to
			// not matter, so only the server needs the guard.
			if ts, ok := f.servers[name]; ok {
				ts.Close()
				rep.Close()
			}
		}
	})
	return f
}

// kill removes a replica from the fleet the hard way: its replication
// agent stops, its listener closes, and the router ejects it. The test
// remains responsible for unfreezing and draining the wrapped daemon.
func (f *testFleet) kill(name string) {
	f.reps[name].Close()
	f.servers[name].Close()
	f.router.SetHealth(name, false)
	delete(f.servers, name)
}

func TestFleetByteIdentity(t *testing.T) {
	body := quickRequest(21)
	id, wantResult, wantEvents := baselineRun(t, body)

	f := startFleet(t, 3)
	got := submit(t, f.routeTS.URL, body)
	if got.ID != id {
		t.Fatalf("fleet fingerprint %s differs from single-daemon %s", got.ID, id)
	}
	final := waitDone(t, f.routeTS.URL, id)
	if final.Status != store.StatusDone {
		t.Fatalf("fleet search ended %s: %s", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, wantResult) {
		t.Errorf("fleet result differs from single daemon:\nfleet:    %s\nbaseline: %s",
			final.Result, wantResult)
	}

	// The event stream through the router matches the baseline's file.
	resp, err := http.Get(f.routeTS.URL + "/v1/search/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, wantEvents) {
		t.Errorf("fleet event stream differs from single daemon (%d vs %d bytes)",
			len(streamed), len(wantEvents))
	}

	// Satellite: a replica that never ran the search serves the same
	// bytes. Hitting a non-owner directly exercises pull-on-miss.
	owner := f.ring.OwnerN(id, 1)[0]
	var nonOwner string
	for _, name := range f.names {
		if name != owner {
			nonOwner = name
			break
		}
	}
	direct := getStatus(t, f.peers[nonOwner], id)
	if direct.Status != store.StatusDone {
		t.Fatalf("non-owner %s serves status %s (owner is %s)", nonOwner, direct.Status, owner)
	}
	if !bytes.Equal(direct.Result, wantResult) {
		t.Errorf("non-owner result differs from single daemon")
	}
	pulledEvents, err := os.ReadFile(f.reps[nonOwner].Server().Store().EventsPath(id))
	if err != nil {
		t.Fatalf("non-owner has no events file after pull: %v", err)
	}
	if !bytes.Equal(pulledEvents, wantEvents) {
		t.Errorf("non-owner event file differs from single daemon (%d vs %d bytes)",
			len(pulledEvents), len(wantEvents))
	}
	if v := f.reps[nonOwner].Server().Metrics().Counter("fleet.pulled").Value(); v != 1 {
		t.Errorf("non-owner fleet.pulled = %d, want 1", v)
	}
}

func TestFleetFailover(t *testing.T) {
	body := quickRequest(23)
	id, wantResult, wantEvents := baselineRun(t, body)

	f := startFleet(t, 3)
	owners := f.ring.OwnerN(id, 2)
	owner, backup := owners[0], owners[1]
	ownerStore := f.reps[owner].Server().Store()

	// Freeze the owner's search at the first event write after a
	// checkpoint exists: by then the checkpoint push has been nudged, and
	// the frozen goroutine holds the store state still while the push
	// loop replicates it. (The hook runs on the search goroutine; it must
	// freeze only once.)
	gate := make(chan struct{})
	frozen := make(chan struct{})
	var once sync.Once
	ckptPath := ownerStore.CheckpointPath(id)
	ownerStore.SetEventWriteHook(func() {
		if _, err := os.Stat(ckptPath); err != nil {
			return
		}
		once.Do(func() { close(frozen) })
		<-gate
	})
	// The owner's daemon must be released and drained whatever the test's
	// outcome, or its frozen search goroutine outlives the test.
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer func() {
		release()
		f.reps[owner].Server().Drain()
	}()

	if got := submit(t, f.routeTS.URL, body); got.ID != id {
		t.Fatalf("fleet fingerprint %s differs from single-daemon %s", got.ID, id)
	}
	select {
	case <-frozen:
	case <-time.After(60 * time.Second):
		t.Fatal("search never checkpointed (freeze hook never fired)")
	}

	// Wait for the checkpoint bundle to land staged on the backup — the
	// replication the adoption will consume.
	stagedPath := filepath.Join(f.reps[backup].Server().Store().Dir(), "fleet", id+".bundle.json")
	for deadline := time.Now().Add(30 * time.Second); ; {
		if _, err := os.Stat(stagedPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("checkpoint bundle never staged on backup %s", backup)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the owner mid-search. Its frozen search goroutine lives on in
	// this process (released at cleanup, finishing into a dead store);
	// what matters is that the fleet stops hearing from it.
	f.kill(owner)

	// Duplicate concurrent clients arrive for the dead owner's search.
	// All must land on the adopter and coalesce: exactly one submission
	// starts (resumes) the search, the rest attach to it.
	const clients = 5
	results := make([]statusResponse, clients)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = submit(t, f.routeTS.URL, body)
		}(i)
	}
	wg.Wait()
	owned := 0
	for i, sr := range results {
		if sr.ID != id {
			t.Fatalf("client %d got id %s, want %s", i, sr.ID, id)
		}
		if !sr.Coalesced {
			owned++
		}
	}
	if owned != 1 {
		t.Errorf("%d of %d duplicate submissions started a search, want exactly 1", owned, clients)
	}

	final := waitDone(t, f.routeTS.URL, id)
	if final.Status != store.StatusDone {
		t.Fatalf("adopted search ended %s: %s", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, wantResult) {
		t.Errorf("failed-over result differs from uninterrupted single daemon:\nfleet:    %s\nbaseline: %s",
			final.Result, wantResult)
	}
	adopterEvents, err := os.ReadFile(f.reps[backup].Server().Store().EventsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(adopterEvents, wantEvents) {
		t.Errorf("failed-over event file differs from uninterrupted run (%d vs %d bytes)",
			len(adopterEvents), len(wantEvents))
	}

	// The reclaim happened exactly once, on the backup.
	if v := f.reps[backup].Server().Metrics().Counter("fleet.reclaimed").Value(); v != 1 {
		t.Errorf("backup fleet.reclaimed = %d, want 1", v)
	}
	for _, name := range f.names {
		if name == backup || name == owner {
			continue
		}
		if v := f.reps[name].Server().Metrics().Counter("fleet.reclaimed").Value(); v != 0 {
			t.Errorf("replica %s reclaimed %d searches, want 0", name, v)
		}
	}
	// The staged bundle was consumed, not left to be adopted again.
	if _, err := os.Stat(stagedPath); !os.IsNotExist(err) {
		t.Errorf("staged bundle still present after adoption: %v", err)
	}
}
