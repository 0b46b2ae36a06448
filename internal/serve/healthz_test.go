package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"automap/internal/serve"
)

// TestHealthzDraining: the liveness probe is the fleet router's ejection
// signal, so a draining daemon must flip it to 503 "draining" — before
// the drain finishes, not after — while a healthy daemon answers 200
// "ok".
func TestHealthzDraining(t *testing.T) {
	srv, err := serve.New(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	check := func(wantCode int, wantBody string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode || string(body) != wantBody {
			t.Fatalf("/healthz = %d %q, want %d %q", resp.StatusCode, body, wantCode, wantBody)
		}
	}

	check(http.StatusOK, "ok\n")
	srv.Drain()
	check(http.StatusServiceUnavailable, "draining\n")
}
