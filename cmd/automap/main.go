// Command automap is the AutoMap driver (Section 3.3 of the paper): it
// profiles an application once to generate the search-space file, runs an
// offline search over candidate mappings, and reports the fastest mapping
// found — all without modifying the application.
//
// Subcommands:
//
//	automap profile  -app pennant -input 320x360 [-cluster shepard] [-nodes 1] [-o space.json]
//	automap search   -app pennant -input 320x360 [-algo ccd|cd|ot] [-budget 3600] [-o mapping.json]
//	automap evaluate -app pennant -input 320x360 [-mapper default|custom|allzc] [-mapping mapping.json]
//	automap apps
//
// The search prints the best mapping (Figure 2/3-style), its measured
// runtime versus the default mapping, and the Section 5.3 accounting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"automap/internal/analyze"
	"automap/internal/apps"
	"automap/internal/checkpoint"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/explain"
	"automap/internal/machine"
	"automap/internal/mapper"
	"automap/internal/mapping"
	"automap/internal/profile"
	"automap/internal/search"
	"automap/internal/sim"
	"automap/internal/taskir"
	"automap/internal/telemetry"
	"automap/internal/viz"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "profile":
		cmdProfile(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "evaluate":
		cmdEvaluate(os.Args[2:])
	case "apps":
		cmdApps()
	case "machine":
		cmdMachine(os.Args[2:])
	case "online":
		cmdOnline(os.Args[2:])
	case "env":
		cmdEnv()
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: automap <profile|search|evaluate|online|apps|machine|env> [flags]")
}

// cmdEnv prints the execution environment as the process itself sees it —
// one "key value" pair per line. The bench harness records gomaxprocs from
// here rather than nproc: the two differ under cgroup CPU limits or an
// explicit GOMAXPROCS, and the value that shaped the measurements is the
// one the runtime used.
func cmdEnv() {
	fmt.Printf("gomaxprocs %d\n", runtime.GOMAXPROCS(0))
	fmt.Printf("numcpu %d\n", runtime.NumCPU())
	fmt.Printf("goversion %s\n", runtime.Version())
}

// commonFlags registers the flags shared by all subcommands.
type commonFlags struct {
	fs      *flag.FlagSet
	app     *string
	input   *string
	cluster *string
	nodes   *int
	seed    *uint64
}

func newCommon(name string) *commonFlags {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return &commonFlags{
		fs:      fs,
		app:     fs.String("app", "", "application: "+fmt.Sprint(apps.Names())),
		input:   fs.String("input", "", "input size string (see 'automap apps')"),
		cluster: fs.String("cluster", "shepard", "cluster model: shepard, lassen, or a JSON machine-spec file"),
		nodes:   fs.Int("nodes", 1, "number of machine nodes"),
		seed:    fs.Uint64("seed", 1, "random seed for noise and search"),
	}
}

func (c *commonFlags) build() (*machine.Machine, *taskir.Graph) {
	app, err := apps.Get(*c.app)
	if err != nil {
		log.Fatal(err)
	}
	if *c.input == "" {
		if list := app.Inputs[*c.nodes]; len(list) > 0 {
			*c.input = list[0]
		} else {
			log.Fatalf("no -input given and no default for %d nodes", *c.nodes)
		}
	}
	g, err := app.Build(*c.input, *c.nodes)
	if err != nil {
		log.Fatal(err)
	}
	var spec cluster.NodeSpec
	switch *c.cluster {
	case "shepard":
		spec = cluster.ShepardNode()
	case "lassen":
		spec = cluster.LassenNode()
	case "perlmutter":
		spec = cluster.PerlmutterNode()
	default:
		var err error
		spec, err = cluster.LoadSpec(*c.cluster)
		if err != nil {
			log.Fatalf("-cluster must be shepard, lassen, perlmutter, or a machine-spec file: %v", err)
		}
	}
	return cluster.Build(spec, *c.nodes), g
}

func cmdProfile(args []string) {
	c := newCommon("profile")
	out := c.fs.String("o", "space.json", "output search-space file")
	c.fs.Parse(args)
	m, g := c.build()
	start := mapping.Default(g, m.Model())
	sp, err := profile.Extract(m, g, start, sim.Config{NoiseSigma: 0.04, Seed: *c.seed})
	if err != nil {
		log.Fatal(err)
	}
	if err := sp.Save(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiled %s (%s) on %s ×%d: %d tasks, %d collection args, baseline %.4fs\n",
		*c.app, *c.input, *c.cluster, *c.nodes, len(sp.Tasks), len(sp.Args), sp.BaselineSec)
	fmt.Printf("search space written to %s\n", *out)
}

func cmdSearch(args []string) {
	c := newCommon("search")
	algoName := c.fs.String("algo", "ccd", "search algorithm: ccd, cd, ot, random, or anneal")
	budget := c.fs.Float64("budget", 0, "search budget in simulated seconds (0 = unlimited for ccd/cd)")
	out := c.fs.String("o", "", "write the best mapping to this JSON file")
	dot := c.fs.String("dot", "", "write the mapped dependence graph to this Graphviz DOT file")
	spaceFile := c.fs.String("space", "", "search-space file from 'automap profile' (skips re-profiling)")
	check := c.fs.Bool("check", false, "lint the program statically before searching and enable infeasibility pre-pruning")
	eventsFile := c.fs.String("events", "", "write the search telemetry event stream to this JSONL file")
	metricsFile := c.fs.String("metrics", "", "write the final metrics snapshot to this file (Prometheus text format)")
	searchTraceFile := c.fs.String("search-trace", "", "write a chrome://tracing JSON of the search timeline to this file")
	workers := c.fs.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS); results are identical at any value")
	ckptPath := c.fs.String("checkpoint", "", "periodically save search state to this file (and once more on exit)")
	ckptEvery := c.fs.Int("checkpoint-every", 0, "fresh measurements between periodic checkpoints (0 = default, 25)")
	resume := c.fs.Bool("resume", false, "resume from the -checkpoint file: replay to the interrupted run's exact state, then continue")
	deadline := c.fs.Duration("deadline", 0, "wall-clock time limit (e.g. 30s); on expiry the search checkpoints and stops cleanly")
	explainTop := c.fs.Int("explain", 0, "print the top-N makespan attribution of the winning mapping (0 = off)")
	c.fs.Parse(args)
	m, g := c.build()
	if *check {
		rep := analyze.Check(m, g, nil)
		for _, d := range rep.Filter(analyze.Warn) {
			fmt.Println(d.Format(g))
		}
		if rep.HasErrors() {
			log.Fatalf("mapcheck: %d error(s); the program cannot execute on this machine", rep.Count(analyze.Error))
		}
	}

	var sp *profile.Space
	if *spaceFile != "" {
		var err error
		sp, err = profile.Load(*spaceFile)
		if err != nil {
			log.Fatal(err)
		}
	}

	var alg search.Algorithm
	switch *algoName {
	case "ccd":
		alg = search.NewCCD()
	case "cd":
		alg = search.NewCD()
	case "ot":
		alg = search.NewOpenTuner()
		if *budget == 0 {
			*budget = 2 * 3600 // the ensemble needs a bound
		}
	case "random":
		alg = search.NewRandom()
		if *budget == 0 {
			*budget = 2 * 3600
		}
	case "anneal":
		alg = search.NewAnneal()
	default:
		log.Fatalf("unknown algorithm %q", *algoName)
	}

	opts := driver.DefaultOptions()
	opts.Seed = *c.seed
	opts.PrePrune = *check
	opts.Workers = *workers
	opts.CheckpointPath = *ckptPath
	opts.CheckpointEvery = *ckptEvery
	if *c.app == "maestro" {
		opts.Tunable = apps.MaestroTunable(g)
	}

	// Cancellation: ^C / SIGTERM and the optional wall-clock deadline
	// both flow into the search through the budget's context, producing a
	// clean stop (final checkpoint, flushed telemetry) instead of a
	// killed process.
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		// Once cancelled, restore default signal handling so a second
		// ^C kills the process rather than waiting for the drain.
		<-ctx.Done()
		stop()
	}()

	if *resume {
		if *ckptPath == "" {
			log.Fatal("-resume requires -checkpoint")
		}
		snap, err := checkpoint.Load(*ckptPath)
		if err != nil {
			log.Fatal(err)
		}
		opts.ResumeFrom = snap
		fmt.Printf("resuming from %s (%d recorded evaluations, %.0f simulated seconds)\n",
			*ckptPath, len(snap.Evals), snap.SearchSec)
	}

	// Telemetry: a JSONL sink streams events to -events as the search
	// runs; a memory sink retains them for the -search-trace timeline;
	// the registry backs -metrics and Report.Metrics. On resume the
	// existing event file is continued: the replayed prefix (as many
	// events as the file already holds, minus any partial last line from
	// a crash) is suppressed and the suffix appended, so the final file
	// is byte-identical to an uninterrupted run's.
	var jsonl *telemetry.JSONLSink
	var mem *telemetry.MemorySink
	if *eventsFile != "" || *metricsFile != "" || *searchTraceFile != "" {
		var sinks []telemetry.Sink
		if *eventsFile != "" {
			skip := 0
			var f *os.File
			var err error
			if opts.ResumeFrom != nil {
				f, skip, _, err = telemetry.ResumeJSONL(*eventsFile)
			} else {
				f, err = os.Create(*eventsFile)
			}
			if err != nil {
				log.Fatal(err)
			}
			jsonl = telemetry.NewJSONLSink(f)
			jsonl.Resume(skip)
			sinks = append(sinks, jsonl)
		}
		if *searchTraceFile != "" {
			mem = telemetry.NewMemorySink()
			sinks = append(sinks, mem)
		}
		opts.Observer = &telemetry.Observer{
			Sink:    telemetry.Multi(sinks...),
			Metrics: telemetry.NewRegistry(),
		}
	}

	// closeEvents flushes and closes the JSONL sink, surfacing retained
	// write errors; both the completed and the interrupted exit paths
	// run it, so no buffered tail of the stream is ever dropped.
	closeEvents := func() {
		if jsonl == nil {
			return
		}
		if err := jsonl.Close(); err != nil {
			log.Fatalf("writing %s: %v", *eventsFile, err)
		}
		fmt.Printf("telemetry events written to %s\n", *eventsFile)
		jsonl = nil
	}
	writeMetrics := func() {
		if *metricsFile == "" {
			return
		}
		f, err := os.Create(*metricsFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := opts.Observer.Metrics.WritePrometheus(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsFile)
	}

	rep, err := driver.SearchFromSpace(m, g, sp, alg, opts, search.Budget{MaxSearchSec: *budget, Context: ctx})
	if err != nil {
		log.Fatal(err)
	}
	if rep.CheckpointErr != nil {
		log.Printf("warning: checkpoint write failed: %v", rep.CheckpointErr)
	}
	if rep.Interrupted() {
		fmt.Printf("search stopped (%s) after %.0f simulated seconds: %d suggested, %d evaluated\n",
			rep.StopReason, rep.SearchSec, rep.Suggested, rep.Evaluated)
		if !math.IsInf(rep.SearchBestSec, 1) {
			fmt.Printf("  best so far: %.4fs\n", rep.SearchBestSec)
		}
		if *ckptPath != "" {
			fmt.Printf("  checkpoint saved to %s; resume with the same flags plus -resume\n", *ckptPath)
		}
		closeEvents()
		writeMetrics()
		return
	}
	fmt.Printf("%s on %s (%s, %d node(s)) — algorithm %s\n", *c.app, *c.cluster, *c.input, *c.nodes, rep.Algorithm)
	// The default mapper's mapping may not execute at all on
	// memory-constrained machines (Figure 8's setting); that is a result,
	// not a reason to abort the search report.
	defSec, err := driver.MeasureMapping(m, g, mapper.Default(g, m.Model()), opts.FinalRepeats, opts.NoiseSigma, *c.seed^0xd1ce)
	if err != nil {
		fmt.Printf("  best mapping: %.4fs   default mapper: does not execute (%v)\n", rep.FinalSec, err)
	} else {
		fmt.Printf("  best mapping: %.4fs   default mapper: %.4fs   speedup: %.2fx\n",
			rep.FinalSec, defSec, defSec/rep.FinalSec)
	}
	if rep.StartSec > 0 {
		verdict := "not significant"
		if rep.Significance.Faster(0.05) {
			verdict = "significant at α=0.05"
		}
		fmt.Printf("  improvement over starting mapping: %s (Welch's t: %s)\n", verdict, rep.Significance)
	}
	fmt.Printf("  search time: %.0f simulated seconds (%.0f%% evaluating candidates)",
		rep.SearchSec, 100*rep.EvalSec/rep.SearchSec)
	if rep.StopReason != "" {
		fmt.Printf(", stopped: %s", rep.StopReason)
	}
	fmt.Println()
	fmt.Printf("  mappings suggested: %d, evaluated: %d", rep.Suggested, rep.Evaluated)
	if rep.PruneChecked > 0 {
		fmt.Printf(", statically pruned: %d (of %d checked)", rep.Pruned, rep.PruneChecked)
	}
	fmt.Println()
	fmt.Printf("  mapping shape: %s\n\n", rep.Best.ComputeStats(g))
	fmt.Print(viz.RenderMapping(g, rep.Best))
	if *explainTop > 0 {
		erep, err := explain.Analyze(m, g, rep.Best)
		if err != nil {
			log.Fatalf("explain: %v", err)
		}
		fmt.Println()
		if err := erep.Render(os.Stdout, *explainTop); err != nil {
			log.Fatal(err)
		}
	}
	if *out != "" {
		if err := rep.Best.Save(*out, g); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nmapping written to %s\n", *out)
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			log.Fatal(err)
		}
		if err := viz.WriteDOT(f, g, rep.Best); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("dependence graph written to %s\n", *dot)
	}
	closeEvents()
	writeMetrics()
	if *searchTraceFile != "" {
		f, err := os.Create(*searchTraceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := viz.WriteSearchTrace(f, mem.Events()); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("search trace written to %s\n", *searchTraceFile)
	}
}

func cmdEvaluate(args []string) {
	c := newCommon("evaluate")
	mapperName := c.fs.String("mapper", "default", "mapper: default, custom, allzc, or a saved mapping via -mapping")
	mappingFile := c.fs.String("mapping", "", "mapping JSON file produced by 'automap search -o'")
	repeats := c.fs.Int("repeats", 31, "measurement repetitions")
	gantt := c.fs.Bool("gantt", false, "render an execution timeline of one run")
	traceFile := c.fs.String("trace", "", "write a chrome://tracing JSON of one run to this file")
	check := c.fs.Bool("check", false, "statically lint the mapping before executing; exit on Error diagnostics")
	explainTop := c.fs.Int("explain", 0, "print the top-N makespan attribution of the mapping (0 = off)")
	c.fs.Parse(args)
	m, g := c.build()
	md := m.Model()

	var mp *mapping.Mapping
	var err error
	switch {
	case *mappingFile != "":
		mp, err = mapping.Load(*mappingFile, g)
		if err != nil {
			log.Fatal(err)
		}
	case *mapperName == "default":
		mp = mapper.Default(g, md)
	case *mapperName == "custom":
		mp = mapper.Custom(*c.app, g, md)
	case *mapperName == "allzc":
		mp = mapper.AllZeroCopy(g, md)
	default:
		log.Fatalf("unknown mapper %q", *mapperName)
	}
	if *check {
		rep := analyze.Check(m, g, mp)
		for _, d := range rep.Filter(analyze.Warn) {
			fmt.Println(d.Format(g))
		}
		if rep.HasErrors() {
			log.Fatalf("mapcheck: %d error(s); the mapping cannot execute", rep.Count(analyze.Error))
		}
	}
	if err := mp.Validate(g, md); err != nil {
		log.Fatalf("mapping invalid: %v", err)
	}
	sec, err := driver.MeasureMapping(m, g, mp, *repeats, 0.04, *c.seed)
	if err != nil {
		log.Fatalf("execution failed: %v", err)
	}
	fmt.Printf("%s (%s) on %s ×%d: %.4fs (avg of %d runs, %.2f ms/iteration)\n",
		*c.app, *c.input, *c.cluster, *c.nodes, sec, *repeats, sec/float64(g.Iterations)*1000)
	if *explainTop > 0 {
		erep, err := explain.Analyze(m, g, mp)
		if err != nil {
			log.Fatalf("explain: %v", err)
		}
		if err := erep.Render(os.Stdout, *explainTop); err != nil {
			log.Fatal(err)
		}
	}
	if *gantt {
		res, err := sim.Simulate(m, g, mp, sim.Config{Trace: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(viz.RenderGantt(g, res, 100))
	}
	if *traceFile != "" {
		res, err := sim.Simulate(m, g, mp, sim.Config{Trace: true})
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*traceFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := viz.WriteChromeTrace(f, g, res); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chrome trace written to %s\n", *traceFile)
	}
}

func cmdOnline(args []string) {
	c := newCommon("online")
	inspect := c.fs.Float64("inspect", 600, "inspection budget in simulated seconds")
	production := c.fs.Int("production", 100000, "production run length in iterations")
	c.fs.Parse(args)
	m, g := c.build()
	opts := driver.DefaultOptions()
	opts.Seed = *c.seed
	if *c.app == "maestro" {
		opts.Tunable = apps.MaestroTunable(g)
	}
	rep, err := driver.OnlineSearch(m, g, search.NewCCD(), opts, *inspect, *production)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (%s) inspector-executor over %d production iterations\n", *c.app, *c.input, *production)
	fmt.Printf("  per-iteration: default %.3f ms -> tuned %.3f ms\n",
		rep.PerIterDefaultSec*1000, rep.PerIterBestSec*1000)
	fmt.Printf("  inspection: %.0fs; break-even at %.0f iterations\n", rep.InspectionSec, rep.BreakEvenIterations)
	fmt.Printf("  end-to-end: %.1fs vs %.1fs default (%.2fx)\n", rep.TotalSec, rep.BaselineSec, rep.Speedup())
}

func cmdMachine(args []string) {
	c := newCommon("machine")
	c.fs.Parse(args)
	// The machine subcommand does not need an application; render the
	// topology directly.
	var spec cluster.NodeSpec
	switch *c.cluster {
	case "shepard":
		spec = cluster.ShepardNode()
	case "lassen":
		spec = cluster.LassenNode()
	case "perlmutter":
		spec = cluster.PerlmutterNode()
	default:
		var err error
		spec, err = cluster.LoadSpec(*c.cluster)
		if err != nil {
			log.Fatal(err)
		}
	}
	fmt.Print(viz.RenderMachine(cluster.Build(spec, *c.nodes)))
}

func cmdApps() {
	fmt.Println("applications and example inputs:")
	for _, app := range apps.All() {
		fmt.Printf("  %-8s %s\n", app.Name, app.Description)
		for _, nodes := range []int{1, 2, 4, 8} {
			if list := app.Inputs[nodes]; len(list) > 0 {
				fmt.Printf("           %d node(s): %v\n", nodes, list)
			}
		}
	}
}
