// Command mapstat is the operator's console for a running mapd daemon:
// it summarizes the daemon's searches and metrics, renders the makespan
// attribution of a finished search, and tails serve-side span streams.
//
//	mapstat [-addr localhost:8356] top
//	mapstat [-addr localhost:8356] explain <search-id> [-top 10]
//	mapstat [-addr localhost:8356] spans <search-id>
//
// All state comes over the daemon's HTTP API; mapstat never touches the
// store directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"

	"automap/internal/explain"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "localhost:8356", "mapd daemon address")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	base := "http://" + *addr
	switch args[0] {
	case "top":
		cmdTop(base)
	case "explain":
		cmdExplain(base, args[1:])
	case "spans":
		cmdSpans(base, args[1:])
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mapstat [-addr host:port] <top | explain <id> [-top N] | spans <id>>")
}

// get fetches a URL and fails on transport errors; the caller owns the
// response body.
func get(url string) *http.Response {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("%s: %v (is mapd running?)", url, err)
	}
	return resp
}

// getJSON fetches and decodes a JSON endpoint, surfacing the daemon's
// error body on non-200s.
func getJSON(url string, v any) {
	resp := get(url)
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			log.Fatalf("%s: %s", url, e.Error)
		}
		log.Fatalf("%s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.Unmarshal(body, v); err != nil {
		log.Fatalf("%s: %v", url, err)
	}
}

// cmdTop prints the daemon overview: per-status search counts, every
// known search, and the headline serve metrics.
func cmdTop(base string) {
	var searches []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	getJSON(base+"/v1/searches", &searches)

	byStatus := map[string]int{}
	for _, s := range searches {
		byStatus[s.Status]++
	}
	fmt.Printf("%d search(es)", len(searches))
	if len(searches) > 0 {
		keys := make([]string, 0, len(byStatus))
		//mapvet:unordered keys are sorted below before printing
		for k := range byStatus {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%d %s", byStatus[k], k))
		}
		fmt.Printf(" (%s)", strings.Join(parts, ", "))
	}
	fmt.Println()
	sort.Slice(searches, func(i, j int) bool { return searches[i].ID < searches[j].ID })
	for _, s := range searches {
		line := fmt.Sprintf("  %s  %-9s", s.ID, s.Status)
		if s.Error != "" {
			line += "  " + s.Error
		}
		fmt.Println(line)
	}

	// Headline metrics from the legacy dump ("<kind> <name> <value>" per
	// line — trivially parseable, unlike the bucketed exposition).
	resp := get(base + "/metrics?format=text")
	defer resp.Body.Close()
	want := map[string]bool{
		"serve.requests":           true,
		"serve.searches.started":   true,
		"serve.searches.coalesced": true,
		"serve.searches.completed": true,
		"serve.searches.failed":    true,
		"serve.searches.suspended": true,
		"serve.pool.occupancy":     true,
		"serve.pool.capacity":      true,
		"serve.coalesce.hit_ratio": true,
	}
	fmt.Println("daemon:")
	// Wall-clock evaluation telemetry (driver.* — per-worker throughput,
	// synchronous evaluations, superseded speculation) is collected by
	// prefix: the per-worker series are labeled, so their names are
	// open-ended.
	var workerLines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		switch {
		case want[fields[1]]:
			fmt.Printf("  %-26s %s\n", fields[1], fields[2])
		case strings.HasPrefix(fields[1], "driver.worker.") ||
			strings.HasPrefix(fields[1], "driver.commit.") ||
			strings.HasPrefix(fields[1], "driver.prefetch."):
			workerLines = append(workerLines, fmt.Sprintf("  %-38s %s", fields[1], fields[2]))
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	if len(workerLines) > 0 {
		fmt.Println("workers:")
		for _, l := range workerLines {
			fmt.Println(l)
		}
	}
}

// cmdExplain renders the makespan attribution of a finished search.
func cmdExplain(base string, args []string) {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	topK := fs.Int("top", 10, "components to list (0 = all)")
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		log.Fatal("usage: mapstat explain <search-id> [-top N]")
	}
	id := args[0]
	fs.Parse(args[1:])
	var rep explain.Report
	getJSON(base+"/v1/search/"+id+"/explain", &rep)
	if err := rep.Render(os.Stdout, *topK); err != nil {
		log.Fatal(err)
	}
	printRotationStats(base, id)
}

// printRotationStats appends a per-rotation evaluation-path table to the
// explain output, built from the search's telemetry stream: each CCD
// rotation span's end carries the rotation's sim.eval.incremental /
// sim.eval.fallback attribution in its attrs (DESIGN §14). The table is
// best-effort decoration — searches recorded without rotation spans (other
// algorithms, older streams) or an unreachable events endpoint just omit
// it.
func printRotationStats(base, id string) {
	resp, err := http.Get(base + "/v1/search/" + id + "/events")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return
	}
	type rotation struct {
		detail  string
		inc, fb int64
		end     float64
		attrs   bool
	}
	open := map[int]string{} // open rotation span ID → detail
	var rots []rotation
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
			Data  struct {
				ID     int              `json:"id"`
				Name   string           `json:"name"`
				Detail string           `json:"detail"`
				EndSec float64          `json:"end_sec"`
				Attrs  map[string]int64 `json:"attrs"`
			} `json:"data"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		switch ev.Event {
		case "span_start":
			if ev.Data.Name == "rotation" {
				open[ev.Data.ID] = ev.Data.Detail
			}
		case "span_end":
			detail, ok := open[ev.Data.ID]
			if !ok {
				continue
			}
			delete(open, ev.Data.ID)
			inc, incOK := ev.Data.Attrs["sim.eval.incremental"]
			fb := ev.Data.Attrs["sim.eval.fallback"]
			rots = append(rots, rotation{
				detail: detail, inc: inc, fb: fb,
				end: ev.Data.EndSec, attrs: incOK,
			})
		}
	}
	if sc.Err() != nil || len(rots) == 0 {
		return
	}
	fmt.Println()
	fmt.Println("rotations (simulation path per committed evaluation):")
	for _, r := range rots {
		if r.attrs {
			fmt.Printf("  %-12s  incremental %-6d fallback %-6d (ended %.1fs)\n", r.detail, r.inc, r.fb, r.end)
		} else {
			fmt.Printf("  %-12s  (no path attribution recorded)\n", r.detail)
		}
	}
}

// cmdSpans streams a search's serve-side span events to stdout until the
// search finishes or the stream is interrupted.
func cmdSpans(base string, args []string) {
	if len(args) != 1 {
		log.Fatal("usage: mapstat spans <search-id>")
	}
	resp := get(base + "/v1/search/" + args[0] + "/spans")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("HTTP %d", resp.StatusCode)
	}
	if _, err := io.Copy(os.Stdout, resp.Body); err != nil {
		log.Fatal(err)
	}
}
