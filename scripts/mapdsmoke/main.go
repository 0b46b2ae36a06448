// Command mapdsmoke is the CI gate's black-box exercise of the mapd
// binary: it spawns a real daemon process, submits a small search over
// HTTP, verifies that a duplicate request coalesces instead of starting a
// second search, streams the event log, stops the daemon with SIGTERM, and
// restarts it to check that the finished result is served from the store
// byte-identically with no new search started. In both lives, repeated
// submits and status reads of the finished search must answer with
// byte-identical whole response bodies. Everything the in-process
// tests prove about package serve, this proves about the shipped binary —
// flag wiring, signal handling, and the store surviving a process exit.
//
// Usage: go run ./scripts/mapdsmoke -mapd bin/mapd -dir /tmp/store
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"automap/internal/telemetry"
)

const request = `{"app":"stencil","input":"500x500","algorithm":"ccd","seed":9,` +
	`"max_suggestions":100,"repeats":2,"final_repeats":2,"final_candidates":2}`

var base string

func url(path string) string { return base + path }

// startDaemon launches the mapd binary and waits for /healthz.
func startDaemon(bin, dir, addr string) *exec.Cmd {
	cmd := exec.Command(bin, "-addr", addr, "-dir", dir, "-searches", "1")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("starting %s: %v", bin, err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(50 * time.Millisecond) {
		if resp, err := http.Get(url("/healthz")); err == nil {
			resp.Body.Close()
			return cmd
		}
		if time.Now().After(deadline) {
			log.Fatal("daemon never became healthy")
		}
	}
}

// stopDaemon sends SIGTERM and waits for a clean exit.
func stopDaemon(cmd *exec.Cmd) {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		log.Fatalf("SIGTERM: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		log.Fatalf("daemon exited uncleanly after SIGTERM: %v", err)
	}
}

type status struct {
	ID        string          `json:"id"`
	Status    string          `json:"status"`
	Coalesced bool            `json:"coalesced"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

func submit() status {
	resp, err := http.Post(url("/v1/search"), "application/json", strings.NewReader(request))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatalf("decoding submit response: %v", err)
	}
	return st
}

func waitDone(id string) status {
	for deadline := time.Now().Add(120 * time.Second); ; time.Sleep(100 * time.Millisecond) {
		resp, err := http.Get(url("/v1/search/" + id))
		if err != nil {
			log.Fatal(err)
		}
		var st status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			log.Fatalf("decoding status: %v", err)
		}
		switch st.Status {
		case "done":
			return st
		case "failed":
			log.Fatalf("search failed: %s", st.Error)
		}
		if time.Now().After(deadline) {
			log.Fatalf("search stuck in %s", st.Status)
		}
	}
}

// raw performs one request and returns its whole response body.
func raw(method, path, body string) []byte {
	req, err := http.NewRequest(method, url(path), strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("%s %s: %v", method, path, err)
	}
	return data
}

// repeatable submits the finished search twice and reads its status twice;
// each pair of whole response bodies must be byte-identical. It returns
// the submit and status bodies.
func repeatable(life, id string) (submitted, status []byte) {
	for _, r := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/search", request},
		{http.MethodGet, "/v1/search/" + id, ""},
	} {
		a, b := raw(r.method, r.path, r.body), raw(r.method, r.path, r.body)
		if !bytes.Equal(a, b) {
			log.Fatalf("%s: two %s %s of the finished search answered differently:\n%s\n%s", life, r.method, r.path, a, b)
		}
		if r.method == http.MethodPost {
			submitted = a
		} else {
			status = a
		}
	}
	return submitted, status
}

// metric reads one unlabeled series from /metrics by its exposed name.
func metric(name string) float64 {
	resp, err := http.Get(url("/metrics"))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := telemetry.ReadPrometheus(resp.Body)
	if err != nil {
		log.Fatalf("/metrics: %v", err)
	}
	for _, s := range samples {
		if s.Name == name && s.Labels == "" {
			return s.Value
		}
	}
	log.Fatalf("metric %s not exported", name)
	return 0
}

// checkPrometheus asserts the default /metrics surface is the Prometheus
// text exposition: right content type, a _total counter, and build_info.
func checkPrometheus() {
	resp, err := http.Get(url("/metrics"))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		log.Fatalf("/metrics Content-Type = %q, want Prometheus text exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE serve_searches_started_total counter",
		"serve_searches_started_total 1",
		"build_info{",
	} {
		if !strings.Contains(string(body), want) {
			log.Fatalf("/metrics exposition missing %q", want)
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("mapdsmoke: ")
	bin := flag.String("mapd", "bin/mapd", "path to the mapd binary")
	dir := flag.String("dir", "", "store directory (required)")
	addr := flag.String("addr", "127.0.0.1:18356", "daemon listen address")
	flag.Parse()
	if *dir == "" {
		log.Fatal("-dir is required")
	}
	base = "http://" + *addr

	// First life: run one search, prove coalescing, collect the result.
	cmd := startDaemon(*bin, *dir, *addr)
	first := submit()
	dup := submit()
	if dup.ID != first.ID || !dup.Coalesced {
		log.Fatalf("duplicate request did not coalesce: first=%s dup=%s coalesced=%v",
			first.ID, dup.ID, dup.Coalesced)
	}
	done := waitDone(first.ID)
	submitted, status := repeatable("first life", first.ID)
	resp, err := http.Get(url("/v1/search/" + first.ID + "/events"))
	if err != nil {
		log.Fatal(err)
	}
	events, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if len(bytes.TrimSpace(events)) == 0 {
		log.Fatal("event stream is empty")
	}
	if n := metric("serve_searches_started_total"); n != 1 {
		log.Fatalf("serve_searches_started_total = %g, want 1", n)
	}
	checkPrometheus()
	stopDaemon(cmd)

	// Second life: the same request must be served from the store without
	// starting a search, byte-identical to the first life's result.
	cmd = startDaemon(*bin, *dir, *addr)
	again := submit()
	if again.Status != "done" || !bytes.Equal(again.Result, done.Result) {
		log.Fatalf("restarted daemon did not serve the stored result (status %s)", again.Status)
	}
	submittedAgain, statusAgain := repeatable("after restart", first.ID)
	if !bytes.Equal(submittedAgain, submitted) || !bytes.Equal(statusAgain, status) {
		log.Fatal("restarted daemon answered the finished search with different bytes than its first life")
	}
	if n := metric("serve_searches_started_total"); n != 0 {
		log.Fatalf("restarted daemon started %g searches for a stored result, want 0", n)
	}
	stopDaemon(cmd)
	fmt.Println("mapdsmoke: ok")
}
