// Package automap is a Go implementation of AutoMap — automated mapping of
// task-based programs onto distributed and heterogeneous machines
// (Teixeira, Henzinger, Yadav & Aiken, SC '23).
//
// A mapping assigns every (group) task of a task-based program to a
// processor kind and every collection argument to a memory kind. AutoMap
// searches the space of mappings offline, executing candidates on the
// target machine (here: a deterministic runtime simulator, see DESIGN.md)
// and keeping the fastest, using the paper's constrained coordinate-wise
// descent (CCD) algorithm by default.
//
// The typical flow mirrors Section 3 of the paper:
//
//	g := buildProgram()           // a taskir-style Graph (or apps.Get(...))
//	m := automap.Shepard(2)       // a modeled machine
//	rep, err := automap.Search(m, g, automap.NewCCD(), automap.DefaultOptions(), automap.Budget{})
//	// rep.Best is the fastest mapping found; rep.FinalSec its runtime.
//
// This package is a façade over the implementation packages:
//
//	internal/machine  — machine model (processors, memories, channels)
//	internal/cluster  — Shepard and Lassen cluster builders
//	internal/taskir   — task-graph intermediate representation
//	internal/mapping  — mapping representation and validation
//	internal/overlap  — collection-overlap graph for CCD
//	internal/sim      — the Legion-like runtime simulator
//	internal/profile  — dynamic analysis and profiles database
//	internal/search   — CD, CCD, and the OpenTuner-style ensemble
//	internal/driver   — the offline search driver and its protocol
//	internal/mapper   — default / custom / strategy baseline mappers
//	internal/apps     — the five benchmark applications of Figure 5
//	internal/experiments — harnesses regenerating every table and figure
package automap

import (
	"automap/internal/analyze"
	"automap/internal/checkpoint"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/profile"
	"automap/internal/rt"
	"automap/internal/search"
	"automap/internal/serve"
	"automap/internal/sim"
	"automap/internal/taskir"
	"automap/internal/telemetry"
)

// Machine-model types.
type (
	// Machine is a concrete machine: processors, memories, channels.
	Machine = machine.Machine
	// Model is the kind-level machine view used by the search.
	Model = machine.Model
	// ProcKind is a processor kind (CPU, GPU).
	ProcKind = machine.ProcKind
	// MemKind is a memory kind (SysMem, ZeroCopy, FrameBuffer).
	MemKind = machine.MemKind
	// NodeSpec describes one node of a homogeneous cluster.
	NodeSpec = cluster.NodeSpec
)

// Processor and memory kinds.
const (
	CPU = machine.CPU
	GPU = machine.GPU

	SysMem      = machine.SysMem
	ZeroCopy    = machine.ZeroCopy
	FrameBuffer = machine.FrameBuffer
)

// Program-representation types.
type (
	// Graph is a task-based program: collections, group tasks, and the
	// dependence structure induced by data flow.
	Graph = taskir.Graph
	// Collection is a named data collection (logical region).
	Collection = taskir.Collection
	// GroupTask is an index launch of Points independent task instances.
	GroupTask = taskir.GroupTask
	// Arg is one collection argument of a task.
	Arg = taskir.Arg
	// Variant is a task implementation for one processor kind.
	Variant = taskir.Variant
	// Privilege is an access privilege (ReadOnly, WriteOnly, ReadWrite).
	Privilege = taskir.Privilege
	// TaskID and CollectionID name tasks and collections in a Graph.
	TaskID       = taskir.TaskID
	CollectionID = taskir.CollectionID
)

// Access privileges.
const (
	ReadOnly  = taskir.ReadOnly
	WriteOnly = taskir.WriteOnly
	ReadWrite = taskir.ReadWrite
)

// NewGraph returns an empty program graph.
func NewGraph(name string) *Graph { return taskir.NewGraph(name) }

// Mapping types.
type (
	// Mapping maps tasks to processor kinds and collection arguments to
	// memory-kind priority lists.
	Mapping = mapping.Mapping
	// Decision is one task's mapping.
	Decision = mapping.Decision
)

// DefaultMapping returns the runtime's default heuristic mapping: GPUs
// whenever a GPU variant exists, Frame-Buffer for every collection.
func DefaultMapping(g *Graph, md *Model) *Mapping { return mapping.Default(g, md) }

// LoadMapping reads a mapping file written by Mapping.Save and binds it to
// g.
func LoadMapping(path string, g *Graph) (*Mapping, error) { return mapping.Load(path, g) }

// Cluster builders for the two machines of the paper's evaluation.
var (
	// Shepard builds an n-node Shepard cluster model (2×28-core Xeon,
	// one 16 GB P100 per node).
	Shepard = cluster.Shepard
	// Lassen builds an n-node Lassen cluster model (2×22-core Power9,
	// four 16 GB NVLink V100s per node).
	Lassen = cluster.Lassen
	// Perlmutter builds an n-node Perlmutter-style model (64-core EPYC,
	// four 40 GB A100s per node) — a modern target beyond the paper.
	Perlmutter = cluster.Perlmutter
)

// BuildCluster constructs a machine from a custom node specification.
func BuildCluster(spec NodeSpec, nodes int) *Machine { return cluster.Build(spec, nodes) }

// ShepardNode and LassenNode return the calibrated node specifications,
// which can be modified to model other machines.
var (
	ShepardNode    = cluster.ShepardNode
	LassenNode     = cluster.LassenNode
	PerlmutterNode = cluster.PerlmutterNode
)

// Simulation types.
type (
	// SimConfig controls one simulated execution.
	SimConfig = sim.Config
	// SimResult reports a simulated execution.
	SimResult = sim.Result
	// SimSummary is the flat outcome of one measured run (makespan,
	// energy, copy totals, spills): what Options.Objective scores.
	SimSummary = sim.Summary
	// OOMError reports a mapping that does not fit in memory.
	OOMError = sim.OOMError
)

// SimEvent is one traced task execution (SimConfig.Trace).
type SimEvent = sim.Event

// Simulate executes program g under mapping mp on machine m.
func Simulate(m *Machine, g *Graph, mp *Mapping, cfg SimConfig) (*SimResult, error) {
	return sim.Simulate(m, g, mp, cfg)
}

// OnlineReport is the outcome of an inspector-executor run (Section 6).
type OnlineReport = driver.OnlineReport

// OnlineSearch runs AutoMap in the inspector-executor style: inspect with a
// bounded budget, then execute the remaining production iterations under
// the best mapping found.
func OnlineSearch(m *Machine, g *Graph, alg Algorithm, opts Options, inspectSec float64, productionIters int) (*OnlineReport, error) {
	return driver.OnlineSearch(m, g, alg, opts, inspectSec, productionIters)
}

// Objectives for Options.Objective, which maps the SimSummary of each
// measured run to the scalar the search minimizes. A custom objective is a
// func(*SimSummary) float64.
var (
	// TimeObjective minimizes execution time (the default).
	TimeObjective = driver.TimeObjective
	// EnergyObjective minimizes estimated dynamic energy.
	EnergyObjective = driver.EnergyObjective
)

// Search types.
type (
	// Algorithm is a pluggable search algorithm.
	Algorithm = search.Algorithm
	// Budget bounds a search by simulated time or suggestion count.
	Budget = search.Budget
	// CCD is the constrained coordinate-wise descent algorithm.
	CCD = search.CCD
	// OpenTuner is the generic ensemble tuner.
	OpenTuner = search.OpenTuner
	// Options is the driver's measurement protocol configuration.
	Options = driver.Options
	// Report is the outcome of a driver search.
	Report = driver.Report
	// Space is the profiled search-space representation (the file
	// generated by running the application once, Section 3.3).
	Space = profile.Space
)

// Search algorithms.
var (
	// NewCCD returns the paper's CCD (5 rotations, co-location
	// constraints).
	NewCCD = search.NewCCD
	// NewCD returns plain coordinate-wise descent.
	NewCD = search.NewCD
	// NewOpenTuner returns the OpenTuner-style ensemble.
	NewOpenTuner = search.NewOpenTuner
	// NewRandom returns uniform random search over valid mappings.
	NewRandom = search.NewRandom
	// NewAnneal returns simulated annealing over single-decision moves.
	NewAnneal = search.NewAnneal
)

// DefaultOptions returns the paper's protocol: 7-run averages during the
// search, top-5 finalists re-measured 31 times.
func DefaultOptions() Options { return driver.DefaultOptions() }

// Search profiles g on m, runs the algorithm within budget, re-measures the
// finalists, and returns the report.
func Search(m *Machine, g *Graph, alg Algorithm, opts Options, budget Budget) (*Report, error) {
	return driver.Search(m, g, alg, opts, budget)
}

// MeasureMapping runs a fixed mapping `repeats` times and returns the mean
// execution time — the protocol used for baseline mappers.
func MeasureMapping(m *Machine, g *Graph, mp *Mapping, repeats int, noise float64, seed uint64) (float64, error) {
	return driver.MeasureMapping(m, g, mp, repeats, noise, seed)
}

// ExtractSpace profiles the application once under the starting mapping and
// returns the search-space representation (Section 3.3).
func ExtractSpace(m *Machine, g *Graph, start *Mapping, cfg SimConfig) (*Space, error) {
	return profile.Extract(m, g, start, cfg)
}

// ProfilesDB is the profiles database of Figure 4: the measurements of
// every evaluated mapping, keyed by canonical mapping hash. Databases can
// be saved and reloaded to warm-start later searches
// (Options.WarmDB).
type ProfilesDB = profile.DB

// NewProfilesDB returns an empty profiles database.
func NewProfilesDB() *ProfilesDB { return profile.NewDB() }

// LoadProfilesDB reads a database written by ProfilesDB.Save.
func LoadProfilesDB(path string) (*ProfilesDB, error) { return profile.LoadDB(path) }

// SearchFromSpace is Search with a pre-computed search-space file (nil
// profiles the application first).
func SearchFromSpace(m *Machine, g *Graph, sp *Space, alg Algorithm, opts Options, budget Budget) (*Report, error) {
	return driver.SearchFromSpace(m, g, sp, alg, opts, budget)
}

// Static analysis (mapcheck, internal/analyze): coded diagnostics over
// (program, machine, mapping) triples without executing anything.
type (
	// LintReport is the outcome of a static analysis: diagnostics of
	// every pass, sorted most severe first.
	LintReport = analyze.Report
	// Diagnostic is one coded finding (AM0001–AM0010) with a source
	// location naming the task, argument, and collection involved.
	Diagnostic = analyze.Diagnostic
	// DiagSeverity ranks a diagnostic (DiagInfo, DiagWarn, DiagError).
	DiagSeverity = analyze.Severity
)

// Diagnostic severities.
const (
	DiagInfo  = analyze.Info
	DiagWarn  = analyze.Warn
	DiagError = analyze.Error
)

// Lint statically analyzes program g mapped by mp on machine m with the
// default pass list. mp may be nil for a program-only lint. Library users
// can lint before tuning; rep.HasErrors() reports unexecutable inputs.
func Lint(m *Machine, g *Graph, mp *Mapping) *LintReport { return analyze.Check(m, g, mp) }

// Infeasible reports whether mp is statically unexecutable on (m, g): it
// fails validation or cannot fit in memory under the simulator's own
// placement arithmetic. It is the verdict search pre-pruning
// (Options.PrePrune) takes from validation and the simulator's placement
// plan.
func Infeasible(m *Machine, g *Graph, mp *Mapping) bool { return analyze.Infeasible(m, g, mp) }

// Observability (internal/telemetry): a typed event stream and metrics
// registry over the search process. Attach an Observer via
// Options.Observer; the driver then streams Suggested/Evaluated/NewBest/
// rotation events to the sink and folds evaluator and simulator counters
// into the registry (Report.Metrics carries the final snapshot). Payloads
// are clocked in simulated search seconds, so telemetry is byte-identical
// across runs with the same seed.
type (
	// Observer pairs an event sink with a metrics registry.
	Observer = telemetry.Observer
	// TelemetryEvent is one structured search-process event.
	TelemetryEvent = telemetry.Event
	// TelemetrySink consumes events (JSONL, in-memory, or fan-out).
	TelemetrySink = telemetry.Sink
	// MetricsRegistry is the named counter/gauge/histogram store.
	MetricsRegistry = telemetry.Registry
	// StopReason reports why a search ended (Report.StopReason).
	StopReason = search.StopReason
)

// Stop reasons. StopDeadline and StopInterrupted report context
// cancellation (Budget.Context): the search stopped cleanly, wrote its
// final checkpoint when Options.CheckpointPath is set, and can be resumed.
const (
	StopTimeBudget       = search.StopTimeBudget
	StopSuggestionBudget = search.StopSuggestionBudget
	StopConverged        = search.StopConverged
	StopDeadline         = search.StopDeadline
	StopInterrupted      = search.StopInterrupted
)

// Telemetry constructors.
var (
	// NewJSONLSink streams events to w as JSON lines.
	NewJSONLSink = telemetry.NewJSONLSink
	// NewMemorySink retains events in memory (viz.WriteSearchTrace input).
	NewMemorySink = telemetry.NewMemorySink
	// NewMetricsRegistry returns an empty metrics registry.
	NewMetricsRegistry = telemetry.NewRegistry
	// MultiSink fans events out to several sinks in order.
	MultiSink = telemetry.Multi
)

// Crash safety (internal/checkpoint): a search with Options.CheckpointPath
// periodically persists its state — the committed measurement log and
// telemetry sequence counter behind an atomic rename — and a search with
// Options.ResumeFrom replays a snapshot to the interrupted run's exact
// state before continuing, reproducing the uninterrupted run's Report and
// telemetry stream byte for byte at any worker count.
type (
	// SearchCheckpoint is one persisted search snapshot.
	SearchCheckpoint = checkpoint.Snapshot
)

// LoadCheckpoint reads a snapshot saved by a checkpointing search.
var LoadCheckpoint = checkpoint.Load

// Serving (internal/serve): mapd, the mapping-as-a-service daemon. A
// Server accepts search requests over HTTP/JSON, coalesces duplicates by
// search fingerprint, persists completed results, and drains to a
// resumable on-disk state on shutdown (see cmd/mapd).
type (
	// Server is the mapd daemon: HTTP handler plus search worker pool.
	Server = serve.Server
	// ServeRequest is one mapping-search request document.
	ServeRequest = serve.Request
	// ServeResult is the served outcome of one search.
	ServeResult = serve.Result
)

// NewServer returns a daemon over a store directory running at most
// `searches` concurrent searches (<= 0 picks a default).
func NewServer(dir string, searches int) (*Server, error) { return serve.New(dir, searches) }

// Real mini-runtime (internal/rt): actually execute task graphs on the
// host with goroutine worker pools, real buffers and paced copies, and
// tune them with wall-clock measurements.
type (
	// RuntimeMachine is a host machine of worker pools and arenas.
	RuntimeMachine = rt.Machine
	// RuntimeExecutor executes programs under mappings for real.
	RuntimeExecutor = rt.Executor
	// RuntimeEvaluator adapts the executor to the search algorithms.
	RuntimeEvaluator = rt.Evaluator
)

// DefaultRuntimeMachine returns a host machine emulating a small
// heterogeneous node (scale shrinks kernel work; 1.0 = full).
func DefaultRuntimeMachine(scale float64) *RuntimeMachine { return rt.DefaultMachine(scale) }

// NewRuntimeExecutor returns an executor for (m, g).
func NewRuntimeExecutor(m *RuntimeMachine, g *Graph) *RuntimeExecutor { return rt.NewExecutor(m, g) }

// NewRuntimeEvaluator returns a real-measurement evaluator.
func NewRuntimeEvaluator(ex *RuntimeExecutor, repeats int) *RuntimeEvaluator {
	return rt.NewEvaluator(ex, repeats)
}
