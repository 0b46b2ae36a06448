package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeDaemon is a minimal in-memory daemon for the warmup tests: every
// submitted body gets an id; a search reports "running" for its first
// polls minutes, then "done". shedFirst sheds that many submissions with
// 429 before accepting (warmup retry path).
type fakeDaemon struct {
	mu        sync.Mutex
	ids       map[string]string // body -> id
	polls     map[string]int    // id -> polls served
	pollsDone int               // polls before a search turns done
	shedFirst int
	submits   int
}

func (d *fakeDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	defer d.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodPost {
		d.submits++
		if d.submits <= d.shedFirst {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintln(w, `{"error":"shed"}`)
			return
		}
		var body strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			body.Write(buf[:n])
			if err != nil {
				break
			}
		}
		id, ok := d.ids[body.String()]
		if !ok {
			id = fmt.Sprintf("%032d", len(d.ids)+1)
			d.ids[body.String()] = id
		}
		json.NewEncoder(w).Encode(map[string]string{"id": id, "status": d.status(id)})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/search/")
	d.polls[id]++
	json.NewEncoder(w).Encode(map[string]string{"id": id, "status": d.status(id)})
}

func (d *fakeDaemon) status(id string) string {
	if d.polls[id] >= d.pollsDone {
		return "done"
	}
	return "running"
}

func newFakeDaemon(pollsDone, shedFirst int) *fakeDaemon {
	return &fakeDaemon{
		ids:       make(map[string]string),
		polls:     make(map[string]int),
		pollsDone: pollsDone,
		shedFirst: shedFirst,
	}
}

// TestDefaultBodies: n distinct valid request documents, distinct seeds.
func TestDefaultBodies(t *testing.T) {
	bodies := DefaultBodies(4)
	if len(bodies) != 4 {
		t.Fatalf("DefaultBodies(4) returned %d bodies", len(bodies))
	}
	seen := make(map[string]bool)
	for _, b := range bodies {
		if seen[b] {
			t.Fatalf("duplicate body: %s", b)
		}
		seen[b] = true
		var doc map[string]any
		if err := json.Unmarshal([]byte(b), &doc); err != nil {
			t.Fatalf("body is not valid JSON: %v\n%s", err, b)
		}
	}
}

// TestWarmup: every body is submitted (tolerating initial shed), running
// searches are polled to done.
func TestWarmup(t *testing.T) {
	d := newFakeDaemon(2, 2)
	ts := httptest.NewServer(d)
	defer ts.Close()
	if err := Warmup(context.Background(), ts.URL, DefaultBodies(3), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.ids) != 3 {
		t.Fatalf("warmup registered %d searches, want 3", len(d.ids))
	}
	for id, polls := range d.polls {
		if polls < d.pollsDone {
			t.Errorf("search %s left after %d polls, never seen done", id, polls)
		}
	}
}

// TestWarmupTimeout: a daemon that sheds forever fails the warmup with an
// error, not a hang.
func TestWarmupTimeout(t *testing.T) {
	d := newFakeDaemon(1, 1<<30)
	ts := httptest.NewServer(d)
	defer ts.Close()
	err := Warmup(context.Background(), ts.URL, DefaultBodies(1), 300*time.Millisecond)
	if err == nil {
		t.Fatal("warmup against an always-shedding daemon succeeded")
	}
}
