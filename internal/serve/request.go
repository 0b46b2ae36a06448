// Search requests and results: the documents the mapd daemon accepts,
// persists, and serves.

package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/search"
	"automap/internal/taskir"
)

// Request is one mapping-search request (the POST /v1/search body). The
// zero value of every optional field means "the paper's default", so the
// minimal request is just an application and an algorithm.
type Request struct {
	// App names a registered benchmark application (see internal/apps);
	// Input is its input-size string (empty: the app's 1-node default).
	App   string `json:"app"`
	Input string `json:"input,omitempty"`
	// Cluster is the machine model: shepard, lassen, or perlmutter.
	// Nodes is the cluster size (0 = 1).
	Cluster string `json:"cluster,omitempty"`
	Nodes   int    `json:"nodes,omitempty"`
	// Algorithm selects the search: ccd, cd, ot, random, or anneal.
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives all randomness (0 = 1, the CLI default).
	Seed uint64 `json:"seed,omitempty"`
	// BudgetSec and MaxSuggestions bound the search (see search.Budget).
	BudgetSec      float64 `json:"budget_sec,omitempty"`
	MaxSuggestions int     `json:"max_suggestions,omitempty"`
	// Measurement protocol overrides; zero means the paper's values
	// (7-run averages, top-5 finalists re-measured 31 times, σ = 0.04).
	Repeats         int     `json:"repeats,omitempty"`
	FinalCandidates int     `json:"final_candidates,omitempty"`
	FinalRepeats    int     `json:"final_repeats,omitempty"`
	NoiseSigma      float64 `json:"noise_sigma,omitempty"`
	// PrePrune enables static infeasibility pre-pruning.
	PrePrune bool `json:"pre_prune,omitempty"`
	// Workers may only be 0 or 1, and Normalize rejects any other value: a
	// search measures one candidate at a time, and the field is outside the
	// fingerprint. It stays only because the benchmark's cold request
	// bodies carry "workers":1 and decodeRequest rejects unknown fields;
	// ROADMAP item 2, the benchmark change, deletes it.
	Workers int `json:"workers,omitempty"`
}

// Normalize fills defaults in place so that requests that mean the same
// search serialize — and fingerprint — identically.
func (r *Request) Normalize() error {
	if r.Cluster == "" {
		r.Cluster = "shepard"
	}
	r.Cluster = strings.ToLower(r.Cluster)
	if r.Nodes <= 0 {
		r.Nodes = 1
	}
	if r.Algorithm == "" {
		r.Algorithm = "ccd"
	}
	r.Algorithm = strings.ToLower(r.Algorithm)
	if r.Seed == 0 {
		r.Seed = 1
	}
	def := driver.DefaultOptions()
	if r.Repeats <= 0 {
		r.Repeats = def.Repeats
	}
	if r.FinalCandidates <= 0 {
		r.FinalCandidates = def.FinalCandidates
	}
	if r.FinalRepeats <= 0 {
		r.FinalRepeats = def.FinalRepeats
	}
	if r.NoiseSigma == 0 {
		r.NoiseSigma = def.NoiseSigma
	}
	app, err := apps.Get(r.App)
	if err != nil {
		return err
	}
	if r.Input == "" {
		list := app.Inputs[r.Nodes]
		if len(list) == 0 {
			return fmt.Errorf("app %s has no default input for %d node(s); set input", r.App, r.Nodes)
		}
		r.Input = list[0]
	}
	// The unbounded algorithms need a bound in a shared daemon too: an
	// unlimited random walk would hold a worker slot forever.
	bound := search.Budget{MaxSearchSec: r.BudgetSec, MaxSuggestions: r.MaxSuggestions}.Bounded(r.Algorithm)
	r.BudgetSec = bound.MaxSearchSec
	if r.BudgetSec < 0 || r.MaxSuggestions < 0 {
		return fmt.Errorf("budget bounds must be non-negative")
	}
	if r.Workers < 0 || r.Workers > 1 {
		return fmt.Errorf("workers = %d: a search measures one candidate at a time; omit workers or set it to 1", r.Workers)
	}
	return nil
}

// problem is a fully materialized request: everything the driver needs.
type problem struct {
	m      *machine.Machine
	g      *taskir.Graph
	alg    search.Algorithm
	opts   driver.Options
	budget search.Budget
}

// build materializes the (normalized) request. The construction is
// deterministic: the same request always yields the same machine, graph,
// and options, which is what lets the daemon key results by fingerprint.
func (r *Request) build() (*problem, error) {
	app, err := apps.Get(r.App)
	if err != nil {
		return nil, err
	}
	g, err := app.Build(r.Input, r.Nodes)
	if err != nil {
		return nil, err
	}
	spec, err := cluster.Spec(r.Cluster)
	if err != nil {
		return nil, err
	}
	alg, err := search.New(r.Algorithm)
	if err != nil {
		return nil, err
	}
	opts := driver.DefaultOptions()
	opts.Seed = r.Seed
	opts.Repeats = r.Repeats
	opts.FinalCandidates = r.FinalCandidates
	opts.FinalRepeats = r.FinalRepeats
	opts.NoiseSigma = r.NoiseSigma
	opts.PrePrune = r.PrePrune
	if r.App == "maestro" {
		opts.Tunable = apps.MaestroTunable(g)
	}
	return &problem{
		m: cluster.Build(spec, r.Nodes), g: g, alg: alg, opts: opts,
		budget: search.Budget{MaxSearchSec: r.BudgetSec, MaxSuggestions: r.MaxSuggestions},
	}, nil
}

// Fingerprint returns the request's search fingerprint: the checkpoint
// snapshot fingerprint (algorithm, program, machine, seed, measurement
// protocol, budget — the fields a resume validates) extended with the
// request fields the snapshot names do not determine. Graph and machine
// names do not encode the node count, and the final re-measurement
// protocol is outside the snapshot's search-phase fingerprint, so both are
// hashed in here; two requests with equal fingerprints run the exact same
// search and produce byte-identical results.
func (r *Request) Fingerprint() (string, error) {
	p, err := r.build()
	if err != nil {
		return "", err
	}
	tmpl := driver.SnapshotTemplate(p.alg, p.g, p.m, p.opts, p.budget)
	h := sha256.New()
	fmt.Fprintf(h, "%s|cluster=%s|nodes=%d|fc=%d|fr=%d",
		tmpl.Fingerprint(), r.Cluster, r.Nodes, r.FinalCandidates, r.FinalRepeats)
	return hex.EncodeToString(h.Sum(nil)[:12]), nil
}

// Result is the served outcome of one search — the driver's report in
// wire form. Marshaling is byte-deterministic: field order is fixed, the
// metrics map serializes with sorted keys (encoding/json), and every value
// derives from the deterministic search stack, so two runs of the same
// fingerprint produce byte-identical result documents.
type Result struct {
	Key           string  `json:"key"`
	Algorithm     string  `json:"algorithm"`
	App           string  `json:"app"`
	Input         string  `json:"input"`
	Cluster       string  `json:"cluster"`
	Nodes         int     `json:"nodes"`
	FinalSec      float64 `json:"final_sec"`
	StartSec      float64 `json:"start_sec,omitempty"`
	SearchBestSec float64 `json:"search_best_sec"`
	SearchSec     float64 `json:"search_sec"`
	EvalSec       float64 `json:"eval_sec"`
	Suggested     int     `json:"suggested"`
	Evaluated     int     `json:"evaluated"`
	Pruned        int     `json:"pruned,omitempty"`
	StopReason    string  `json:"stop_reason,omitempty"`
	// Mapping is the winning mapping in mapping.Marshal form, replayable
	// with mapping.Unmarshal against the same graph.
	Mapping json.RawMessage `json:"mapping"`
	// Metrics is the final telemetry metrics snapshot.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// buildResult converts a completed (non-interrupted) report into the wire
// result.
func buildResult(key string, req *Request, p *problem, rep *driver.Report) (*Result, error) {
	mapJSON, err := rep.Best.Marshal(p.g)
	if err != nil {
		return nil, err
	}
	return &Result{
		Key:           key,
		Algorithm:     rep.Algorithm,
		App:           req.App,
		Input:         req.Input,
		Cluster:       req.Cluster,
		Nodes:         req.Nodes,
		FinalSec:      rep.FinalSec,
		StartSec:      rep.StartSec,
		SearchBestSec: rep.SearchBestSec,
		SearchSec:     rep.SearchSec,
		EvalSec:       rep.EvalSec,
		Suggested:     rep.Suggested,
		Evaluated:     rep.Evaluated,
		Pruned:        rep.Pruned,
		StopReason:    string(rep.StopReason),
		Mapping:       mapJSON,
		Metrics:       rep.Metrics,
	}, nil
}
