// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) from the simulated substrate:
//
//	Fig5         — the application table (tasks, collection arguments,
//	               search-space size, CCD search time);
//	Fig6         — speedups of the custom mapper and AutoMap-CCD over the
//	               default mapper across inputs and node counts, for
//	               Circuit (6a), Stencil (6b), Pennant (6c) and HTR (6d);
//	Fig7         — Maestro: HF degradation of the two standard LF mapping
//	               strategies vs AutoMap;
//	Fig8         — Pennant memory-constrained executions (GPU+Zero-Copy vs
//	               AutoMap) on Shepard and Lassen;
//	Fig9         — best-found execution time vs search time for CCD, CD
//	               and OpenTuner on Pennant and HTR;
//	SearchCounts — the Section 5.3 suggested/evaluated accounting.
//
// Each harness returns plain row structs so the cmd/experiments binary,
// the benchmark suite, and the tests can all share them.
package experiments

import (
	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/search"
	"automap/internal/taskir"
)

// Config controls experiment execution.
type Config struct {
	// Driver is the evaluation protocol (repeats, noise, seed).
	Driver driver.Options
	// Budget bounds each search (zero = unbounded).
	Budget search.Budget
	// BaselineRepeats is the measurement count for non-searched
	// baseline mappings (paper: 31).
	BaselineRepeats int
}

// DefaultConfig returns the paper's protocol with an unbounded search
// budget.
func DefaultConfig() Config {
	return Config{
		Driver:          driver.DefaultOptions(),
		BaselineRepeats: 31,
	}
}

// QuickConfig returns a reduced protocol for tests and smoke runs: fewer
// repeats and a bounded search.
func QuickConfig() Config {
	opts := driver.DefaultOptions()
	opts.Repeats = 3
	opts.FinalRepeats = 5
	return Config{
		Driver:          opts,
		Budget:          search.Budget{MaxSuggestions: 300},
		BaselineRepeats: 5,
	}
}

// measure returns the mean execution time of a fixed mapping under the
// baseline measurement protocol.
func measure(cfg Config, m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping) (float64, error) {
	return driver.MeasureMapping(m, g, mp, cfg.BaselineRepeats, cfg.Driver.NoiseSigma, cfg.Driver.Seed^0xbeef)
}
