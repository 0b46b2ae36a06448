// Command benchmark is the repository's end-to-end benchmark. It drives the
// search stack and the serving fleet only through their public Go
// functions, checks every output it gets back, and prints one JSON result
// line. See README.md beside this file for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash benchmark/run.sh --workload search-ccd-htr --seed 1 --seconds 20 --trace 0
//
// --trace 0 runs the timed window with tracing off and reports the
// end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced pass and
// reports the per-layer metrics. The last line of standard output is
// {"correct", "attempted", "failed", "metrics"}; the lines before it name
// every metric with its unit and the sample counts behind it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// manifestPath is BENCHMARK.json relative to the repository root, the
// working directory the benchmark runs in.
const manifestPath = "BENCHMARK.json"

// scratchRoot holds everything a run writes (store directories, the run
// record log); run.sh builds into the same directory.
const scratchRoot = ".bench_build"

// manifestMetric is one metric declared in BENCHMARK.json.
type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the subset of BENCHMARK.json the program reads: which
// workloads exist, which metrics each mode must report and in which unit,
// and the serve workload's latency limit (stated in its "why").
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &m, nil
}

// why returns the declared reason for a workload, or "" when it is not in
// the manifest.
func (m *manifest) why(workload string) string {
	for _, w := range m.Workloads {
		if w.Name == workload {
			return w.Why
		}
	}
	return ""
}

// metricValue is one reported metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measurement is what a workload run hands back: every metric it computed
// (a superset of what the manifest asks for), notes that qualify them
// (sample counts, the percentile a tail value is), and the operation tally.
type measurement struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
}

func newMeasurement() *measurement {
	return &measurement{values: make(map[string]float64), notes: make(map[string]string)}
}

// set records a metric with an optional note.
func (m *measurement) set(name string, v float64, note string) {
	m.values[name] = v
	if note != "" {
		m.notes[name] = note
	}
}

// errMismatch marks a self-check failure: the run's exact counts or result
// digests disagree with the recorded ones or between its own passes. The
// benchmark then reports no numbers at all.
var errMismatch = errors.New("self-check mismatch")

// workloadFunc runs one workload: set-up, then the timed window (trace
// false) or the traced pass (trace true).
type workloadFunc func(cfg runConfig) (*measurement, error)

// runConfig carries the command-line inputs into a workload.
type runConfig struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	manifest *manifest
	scratch  string
	log      io.Writer
}

var workloads = map[string]workloadFunc{
	"search-ccd-htr":        runSearchWorkload,
	"search-anneal-pennant": runSearchWorkload,
	"serve-fleet-mixed":     runServeWorkload,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Uint64("seed", 1, "workload seed: the generated inputs are a pure function of it")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: timed window, end-to-end metrics; 1: traced pass, per-layer metrics")
	record := fs.Bool("record", false, "re-run every pool seed of the search workloads and rewrite benchmark/expected.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordExpected(stderr); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "benchmark: --seconds must be positive")
		return 2
	}
	man, err := loadManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if man.why(*workload) == "" {
		fmt.Fprintf(stderr, "benchmark: workload %q is not declared in %s\n", *workload, manifestPath)
		return 1
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	env := currentEnv(*workload, *seed, *trace)
	cfg := runConfig{
		workload: *workload,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		manifest: man,
		scratch:  scratch,
		log:      stderr,
	}
	meas, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	meas.set("peak_rss_mb", peakRSSMB(), "process high-water mark")
	if meas.attempted > 0 {
		meas.set("fail_ratio", float64(meas.failed)/float64(meas.attempted),
			fmt.Sprintf("%d failed of %d attempted", meas.failed, meas.attempted))
	}

	want := man.EndToEnd
	if cfg.trace {
		want = man.PerLayer
	}
	res := result{
		Correct:   meas.failed == 0 && meas.attempted > 0,
		Attempted: meas.attempted,
		Failed:    meas.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, mm := range want {
		v, ok := meas.values[mm.Name]
		if !ok {
			fmt.Fprintf(stderr, "benchmark: %s did not produce metric %q\n", *workload, mm.Name)
			return 1
		}
		res.Metrics[mm.Name] = metricValue{Value: v, Unit: mm.Unit}
	}
	env.Comparable = recordRun(env, res, stderr)

	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)
	printMetrics(stdout, meas, man)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics writes every computed metric, one per line, sorted by name,
// with its unit (from the manifest where declared) and its note.
func printMetrics(w io.Writer, meas *measurement, man *manifest) {
	units := make(map[string]string)
	for _, mm := range append(append([]manifestMetric(nil), man.EndToEnd...), man.PerLayer...) {
		units[mm.Name] = mm.Unit
	}
	names := make([]string, 0, len(meas.values))
	for n := range meas.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := units[n]
		if unit == "" {
			unit = unitOf(n)
		}
		line := fmt.Sprintf("metric %-32s %16.6f %-6s", n, meas.values[n], unit)
		if note := meas.notes[n]; note != "" {
			line += "  # " + note
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// unitOf infers the unit of an undeclared metric from its name's suffix.
func unitOf(name string) string {
	for _, su := range [][2]string{{"_ms", "ms"}, {"_us", "us"}, {"_s", "s"}, {"_rps", "1/s"}, {"_mb", "MiB"}} {
		if strings.HasSuffix(name, su[0]) {
			return su[1]
		}
	}
	return "-"
}

// env records the conditions a run measured under. Runs whose gomaxprocs
// differ are not comparable: the worker pools and the load generator size
// themselves from it.
type env struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workers    int    `json:"workers"`
	Comparable bool   `json:"comparable"`
}

func currentEnv(workload string, seed uint64, trace int) env {
	commit := os.Getenv("BENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	gmp := runtime.GOMAXPROCS(0)
	return env{
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
		GOMAXPROCS: gmp,
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		// Every search runs with Options.Workers = 0, which the driver
		// resolves to GOMAXPROCS; the load generator uses as many
		// connections.
		Workers:    gmp,
		Comparable: true,
	}
}

// recordRun appends the run to .bench_build/records.jsonl and reports
// whether it is comparable with the earlier records of the same workload
// there: a record measured under another gomaxprocs is not, and the run
// says so on stderr.
func recordRun(e env, res result, log io.Writer) bool {
	path := filepath.Join(scratchRoot, "records.jsonl")
	comparable := true
	if data, err := os.ReadFile(path); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			var prev struct {
				Env env `json:"env"`
			}
			if json.Unmarshal([]byte(line), &prev) != nil || prev.Env.Workload != e.Workload {
				continue
			}
			if prev.Env.GOMAXPROCS != e.GOMAXPROCS {
				comparable = false
			}
		}
	}
	if !comparable {
		fmt.Fprintf(log, "benchmark: NOT COMPARABLE: earlier %s records in %s ran under another gomaxprocs than %d\n",
			e.Workload, path, e.GOMAXPROCS)
	}
	e.Comparable = comparable
	rec, _ := json.Marshal(struct {
		Env    env    `json:"env"`
		Result result `json:"result"`
	}{e, res})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		fmt.Fprintln(log, "benchmark: recording run:", err)
		return comparable
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		fmt.Fprintln(log, "benchmark: recording run:", err)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(log, "benchmark: recording run:", err)
	}
	return comparable
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
