// Command telemetrycheck validates the telemetry artifacts of an `automap
// search -events ... -metrics ...` run for the CI gate: every JSONL line
// must parse, the stream must contain a coherent search envelope (at least
// one CCD rotation, at least one dropped constraint edge, exactly one
// search_finished with a stop reason), the span envelope must be well
// formed (unique IDs, parents before children, every span closed, the root
// "search" span closing last), and the metrics file (Prometheus text) must
// parse and name the series the observability layer promises. With a
// third argument, the two event streams' span subsequences must
// additionally be byte-identical — the run-to-run determinism gate for
// spans.
//
// Usage: go run ./scripts/telemetrycheck events.jsonl metrics.txt [other-events.jsonl]
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"os"

	"automap/internal/telemetry"
)

// record mirrors the JSONL envelope written by telemetry.JSONLSink.
type record struct {
	Seq   int             `json:"seq"`
	Event string          `json:"event"`
	Data  json.RawMessage `json:"data"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("telemetrycheck: ")
	if len(os.Args) != 3 && len(os.Args) != 4 {
		log.Fatal("usage: telemetrycheck <events.jsonl> <metrics.txt> [other-events.jsonl]")
	}
	checkEvents(os.Args[1])
	checkMetrics(os.Args[2])
	if len(os.Args) == 4 {
		checkEvents(os.Args[3])
		checkSpanIdentity(os.Args[1], os.Args[3])
	}
	fmt.Println("telemetrycheck: ok")
}

func checkEvents(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	counts := map[string]int{}
	var stopReason string
	// Span envelope state: every started span must close exactly once,
	// parents must precede children, and the stream must end with the
	// root "search" span's close (the final-measurement phase runs past
	// search_finished, so the root SpanEnd is the true last event).
	spanNames := map[int]string{}
	spanClosed := map[int]bool{}
	rootID := 0
	var lastEvent string
	var lastSpanEnd int
	line := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line++
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			log.Fatalf("%s:%d: bad JSONL line: %v", path, line, err)
		}
		if r.Seq != line {
			log.Fatalf("%s:%d: seq %d out of order", path, line, r.Seq)
		}
		if r.Event == "" {
			log.Fatalf("%s:%d: missing event kind", path, line)
		}
		counts[r.Event]++
		lastEvent = r.Event
		switch r.Event {
		case "search_finished":
			var data struct {
				StopReason string `json:"stop_reason"`
			}
			if err := json.Unmarshal(r.Data, &data); err != nil {
				log.Fatalf("%s:%d: bad search_finished payload: %v", path, line, err)
			}
			stopReason = data.StopReason
		case "span_start":
			var data struct {
				ID     int    `json:"id"`
				Parent int    `json:"parent"`
				Name   string `json:"name"`
			}
			if err := json.Unmarshal(r.Data, &data); err != nil {
				log.Fatalf("%s:%d: bad span_start payload: %v", path, line, err)
			}
			if data.ID == 0 || data.Name == "" {
				log.Fatalf("%s:%d: span_start without id or name", path, line)
			}
			if _, dup := spanNames[data.ID]; dup {
				log.Fatalf("%s:%d: span %d started twice", path, line, data.ID)
			}
			if data.Parent != 0 {
				if _, ok := spanNames[data.Parent]; !ok {
					log.Fatalf("%s:%d: span %d (%s) starts before its parent %d", path, line, data.ID, data.Name, data.Parent)
				}
			}
			spanNames[data.ID] = data.Name
			if data.Name == "search" {
				if rootID != 0 {
					log.Fatalf("%s:%d: second root search span", path, line)
				}
				rootID = data.ID
			}
		case "span_end":
			var data struct {
				ID int `json:"id"`
			}
			if err := json.Unmarshal(r.Data, &data); err != nil {
				log.Fatalf("%s:%d: bad span_end payload: %v", path, line, err)
			}
			if _, ok := spanNames[data.ID]; !ok {
				log.Fatalf("%s:%d: span %d ends before starting", path, line, data.ID)
			}
			if spanClosed[data.ID] {
				log.Fatalf("%s:%d: span %d ended twice", path, line, data.ID)
			}
			spanClosed[data.ID] = true
			lastSpanEnd = data.ID
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if line == 0 {
		log.Fatalf("%s: empty event stream", path)
	}
	for kind, min := range map[string]int{
		"search_started":     1,
		"suggested":          1,
		"evaluated":          1,
		"new_best":           1,
		"rotation_started":   1,
		"constraint_dropped": 1,
	} {
		if counts[kind] < min {
			log.Fatalf("%s: %d %s events, want >= %d", path, counts[kind], kind, min)
		}
	}
	if counts["search_finished"] != 1 {
		log.Fatalf("%s: %d search_finished events, want exactly 1", path, counts["search_finished"])
	}
	if stopReason == "" {
		log.Fatalf("%s: search_finished has no stop_reason", path)
	}
	if counts["suggested"] != counts["evaluated"] {
		log.Fatalf("%s: %d suggested but %d evaluated events",
			path, counts["suggested"], counts["evaluated"])
	}
	if rootID == 0 {
		log.Fatalf("%s: no root search span", path)
	}
	named := map[string]bool{}
	//mapvet:unordered membership only; order does not affect the verdict
	for _, name := range spanNames {
		named[name] = true
	}
	for _, want := range []string{"search_phase", "rotation"} {
		if !named[want] {
			log.Fatalf("%s: no %q span in the stream", path, want)
		}
	}
	//mapvet:unordered first unclosed span is enough; which one is reported does not matter
	for id, name := range spanNames {
		if !spanClosed[id] {
			log.Fatalf("%s: span %d (%s) never closed", path, id, name)
		}
	}
	if lastEvent != "span_end" || lastSpanEnd != rootID {
		log.Fatalf("%s: stream must end by closing the root search span (last event %q, last span end %d, root %d)",
			path, lastEvent, lastSpanEnd, rootID)
	}
}

// checkSpanIdentity asserts that two event streams carry byte-identical
// span subsequences: the span tree is a pure function of the search
// trajectory, so a fixed seed must yield the same spans at any evaluator
// worker count. (ci.sh also compares the whole streams; this check keeps
// the invariant pinned to spans specifically, so a future event kind that
// legitimately varies by worker count does not silently take spans with it.)
func checkSpanIdentity(pathA, pathB string) {
	a, b := spanLines(pathA), spanLines(pathB)
	if len(a) != len(b) {
		log.Fatalf("span streams differ: %s has %d span events, %s has %d",
			pathA, len(a), pathB, len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			log.Fatalf("span streams differ at span event %d:\n  %s: %s\n  %s: %s",
				i+1, pathA, a[i], pathB, b[i])
		}
	}
}

// spanLines returns the raw payload bytes of every span_start/span_end
// line in emission order.
func spanLines(path string) []string {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			log.Fatalf("%s: bad JSONL line: %v", path, err)
		}
		if r.Event == "span_start" || r.Event == "span_end" {
			lines = append(lines, r.Event+" "+string(r.Data))
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return lines
}

func checkMetrics(path string) {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	samples, err := telemetry.ReadPrometheus(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	have := map[string]bool{}
	for _, s := range samples {
		have[s.Name] = true
	}
	// Names as exposed: counters carry _total, a histogram is named by
	// its _count series.
	for _, name := range []string{
		"search_suggested_total", "search_evaluated_total", "search_new_best_total",
		"search_rotations_total", "search_constraint_edges_dropped_total",
		"search_eval_cache_hits_total", "search_eval_sim_runs_total",
		"search_eval_mean_sec_count", "search_best_sec", "search_search_sec",
		"sim_copies_count_total", "sim_copies_bytes_total", "sim_copies_network_bytes_total",
		"driver_final_sec",
	} {
		if !have[name] {
			log.Fatalf("%s: required metric %q missing", path, name)
		}
	}
}
