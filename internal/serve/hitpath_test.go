// Tests of the warm-hit path: the fingerprint cache in front of the
// request pipeline, and finished status documents encoded once per entry.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"automap/internal/serve/store"
)

// hitBody is a valid request body; distinct seeds are distinct searches.
func hitBody(seed int) string {
	return fmt.Sprintf(`{"app":"stencil","input":"500x500","seed":%d,"max_suggestions":20}`, seed)
}

// fingerprintOf runs the uncached pipeline: the key and the canonical
// request document the daemon persists for body.
func fingerprintOf(t *testing.T, body string) (string, []byte) {
	t.Helper()
	req, err := decodeRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := req.Normalize(); err != nil {
		t.Fatal(err)
	}
	key, err := req.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	canonical, err := json.MarshalIndent(&req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return key, canonical
}

// wantStatus is the response the per-request encoder gives for e:
// writeJSON(entryStatus(e)) with the coalesced flag set.
func wantStatus(e *store.Entry, code int, coalesced bool) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	resp := entryStatus(e)
	resp.Coalesced = coalesced
	writeJSON(rec, code, resp)
	return rec
}

// serveOnce runs one request through the daemon's handler.
func serveOnce(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func sameResponse(t *testing.T, what string, got, want *httptest.ResponseRecorder) {
	t.Helper()
	if got.Code != want.Code {
		t.Errorf("%s: status %d, want %d", what, got.Code, want.Code)
	}
	if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
		t.Errorf("%s: Content-Type %q, want %q", what, g, w)
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("%s: body\n%s\nwant\n%s", what, got.Body.Bytes(), want.Body.Bytes())
	}
}

// TestFinishedStatusServedFromStoredBytes: for a Done and a Failed entry,
// submits and status reads return exactly the per-request encoder's bytes,
// on the request that renders the document and on the ones served from
// it, in this daemon and in one restarted over the same store; the
// repeated body is fingerprinted once.
func TestFinishedStatusServedFromStoredBytes(t *testing.T) {
	result := []byte("{\n  \"key\": \"k\",\n  \"final_sec\": 1.25,\n  \"mapping\": {\n    \"tasks\": []\n  }\n}")
	cases := []struct {
		name   string
		status store.Status
		result []byte
		errMsg string
	}{
		{"done", store.StatusDone, result, ""},
		{"failed", store.StatusFailed, nil, "building search: no such variant"},
	}
	dir := t.TempDir()
	srv, err := New(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	for i, tc := range cases {
		body := hitBody(i + 1)
		key, canonical := fingerprintOf(t, body)
		e, err := srv.Store().Install(key, canonical, tc.status, tc.result, tc.errMsg, nil)
		if err != nil {
			t.Fatal(err)
		}
		computed := srv.fp.computed
		for n := 0; n < 3; n++ {
			what := fmt.Sprintf("%s: submit %d", tc.name, n)
			sameResponse(t, what, serveOnce(srv.Handler(), "POST", "/v1/search", body), wantStatus(e, http.StatusOK, true))
			what = fmt.Sprintf("%s: status read %d", tc.name, n)
			sameResponse(t, what, serveOnce(srv.Handler(), "GET", "/v1/search/"+key, ""), wantStatus(e, http.StatusOK, false))
		}
		if n := srv.fp.computed - computed; n != 1 {
			t.Errorf("%s: %d fingerprints computed for one repeated body, want 1", tc.name, n)
		}
		for _, coalesced := range []bool{false, true} {
			a, finished := statusDoc(e, coalesced)
			b, _ := statusDoc(e, coalesced)
			if !finished || &a[0] != &b[0] {
				t.Errorf("%s (coalesced=%v): finished document not kept with the entry", tc.name, coalesced)
			}
		}
	}
	if got := srv.Metrics().Snapshot()["serve.searches.started"]; got != 0 {
		t.Errorf("serve.searches.started = %v for stored results, want 0", got)
	}

	// A daemon restarted over the store serves the same bytes.
	again, err := New(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Drain()
	for i, tc := range cases {
		body := hitBody(i + 1)
		key, _ := fingerprintOf(t, body)
		e, _ := srv.Store().Get(key)
		for n := 0; n < 2; n++ {
			sameResponse(t, tc.name+": restarted submit", serveOnce(again.Handler(), "POST", "/v1/search", body), wantStatus(e, http.StatusOK, true))
			sameResponse(t, tc.name+": restarted status read", serveOnce(again.Handler(), "GET", "/v1/search/"+key, ""), wantStatus(e, http.StatusOK, false))
		}
	}
}

// TestSubmitsAcrossFinish: submits and status reads racing with an entry's
// transition to Done each get a whole unfinished document (202 for a
// submit) or the whole finished one (200), never a mix of the two.
func TestSubmitsAcrossFinish(t *testing.T) {
	srv, err := New(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Drain()
	body := hitBody(7)
	key, canonical := fingerprintOf(t, body)
	// The test owns the entry and drives its lifecycle; no search runs.
	e, owner, err := srv.Store().Begin(key, canonical)
	if err != nil || !owner {
		t.Fatalf("Begin: owner=%v err=%v", owner, err)
	}
	unfinished := func(status store.Status, coalesced bool) []byte {
		return encodeJSON(statusResponse{ID: key, Status: status, Coalesced: coalesced})
	}

	type response struct {
		submit bool
		code   int
		body   []byte
	}
	const clients = 8
	var (
		mu        sync.Mutex
		responses []response
		wg        sync.WaitGroup
	)
	started := make(chan struct{}, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			signalled := false
			// Each client runs until it has seen the finished document
			// on both routes.
			for seenSubmit, seenRead := false, false; !seenSubmit || !seenRead; {
				sub := serveOnce(srv.Handler(), "POST", "/v1/search", body)
				read := serveOnce(srv.Handler(), "GET", "/v1/search/"+key, "")
				seenSubmit = seenSubmit || sub.Code == http.StatusOK
				seenRead = seenRead || strings.Contains(read.Body.String(), `"result"`)
				mu.Lock()
				responses = append(responses,
					response{true, sub.Code, sub.Body.Bytes()},
					response{false, read.Code, read.Body.Bytes()})
				mu.Unlock()
				if !signalled {
					started <- struct{}{}
					signalled = true
				}
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-started
	}
	e.Start()
	if err := e.Complete([]byte("{\n  \"final_sec\": 2\n}")); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	finishedSubmit := wantStatus(e, http.StatusOK, true).Body.Bytes()
	finishedRead := wantStatus(e, http.StatusOK, false).Body.Bytes()
	submits := 0
	for _, r := range responses {
		var ok bool
		if r.submit {
			submits++
			switch r.code {
			case http.StatusAccepted:
				ok = bytes.Equal(r.body, unfinished(store.StatusQueued, true)) ||
					bytes.Equal(r.body, unfinished(store.StatusRunning, true))
			case http.StatusOK:
				ok = bytes.Equal(r.body, finishedSubmit)
			}
		} else {
			ok = r.code == http.StatusOK &&
				(bytes.Equal(r.body, unfinished(store.StatusQueued, false)) ||
					bytes.Equal(r.body, unfinished(store.StatusRunning, false)) ||
					bytes.Equal(r.body, finishedRead))
		}
		if !ok {
			t.Fatalf("submit=%v: status %d with a document that is neither whole unfinished nor the finished bytes:\n%s", r.submit, r.code, r.body)
		}
	}
	snap := srv.Metrics().Snapshot()
	if snap["serve.searches.coalesced"] != float64(submits) || snap["serve.searches.started"] != 0 {
		t.Errorf("coalesced=%v started=%v, want %d and 0", snap["serve.searches.coalesced"], snap["serve.searches.started"], submits)
	}
}

// TestFingerprintCacheBounded: bodies above maxCachedBody are fingerprinted
// correctly but never kept, and many distinct cacheable bodies never hold
// more than maxCachedBytes; every key matches the uncached pipeline's.
func TestFingerprintCacheBounded(t *testing.T) {
	c := NewFingerprintCache()
	check := func(body string) {
		t.Helper()
		got, err := c.Key([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := fingerprintOf(t, body); got != want {
			t.Fatalf("cached key %s, uncached pipeline %s", got, want)
		}
		if c.held > maxCachedBytes {
			t.Fatalf("cache holds %d bytes, bound %d", c.held, maxCachedBytes)
		}
	}

	// Distinct large valid bodies: whitespace after the document.
	large := strings.Repeat(" ", 2*maxCachedBody)
	for i := 0; i < 8; i++ {
		check(hitBody(i+1) + large)
	}
	if len(c.keys) != 0 || c.held != 0 {
		t.Fatalf("large bodies kept: %d entries, %d bytes", len(c.keys), c.held)
	}
	computed := c.computed
	check(hitBody(1) + large)
	if c.computed != computed+1 {
		t.Fatal("a large body was served from the cache")
	}

	// Enough distinct cacheable bodies to overflow the byte bound twice.
	pad := strings.Repeat(" ", maxCachedBody-200)
	n := 2*maxCachedBytes/maxCachedBody + 8
	for i := 0; i < n; i++ {
		check(hitBody(i+1) + pad)
	}
	if c.held == 0 || len(c.keys) == 0 {
		t.Fatal("cacheable bodies were not kept")
	}
	computed = c.computed
	check(hitBody(n) + pad)
	if c.computed != computed {
		t.Fatal("the most recent cacheable body was fingerprinted again")
	}
}
