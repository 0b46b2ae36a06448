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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"

	"automap/internal/explain"
	"automap/internal/telemetry"
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

	// Headline metrics from the Prometheus exposition, by exposed name.
	resp := get(base + "/metrics")
	defer resp.Body.Close()
	samples, err := telemetry.ReadPrometheus(resp.Body)
	if err != nil {
		log.Fatalf("%s/metrics: %v", base, err)
	}
	want := map[string]bool{
		"serve_requests_total":           true,
		"serve_searches_started_total":   true,
		"serve_searches_coalesced_total": true,
		"serve_searches_completed_total": true,
		"serve_searches_failed_total":    true,
		"serve_searches_suspended_total": true,
		"serve_pool_occupancy":           true,
		"serve_pool_capacity":            true,
		"serve_coalesce_hit_ratio":       true,
	}
	fmt.Println("daemon:")
	for _, s := range samples {
		if want[s.Name] {
			fmt.Printf("  %-32s %s\n", s.Name+s.Labels, strconv.FormatFloat(s.Value, 'g', -1, 64))
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
