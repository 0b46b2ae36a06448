// Package analyze is mapcheck: a static analysis subsystem over programs,
// machine models, and mappings.
//
// The search algorithms of the paper (Algorithms 1–2) spend their entire
// budget executing candidate mappings, yet many candidates are statically
// doomed: out of memory by construction, mapped to processor kinds with no
// task variant, or carrying unaddressable memory priority lists. This
// package reasons about the (taskir.Graph, machine.Model, mapping.Mapping)
// triple without executing anything, producing coded diagnostics
// (AM0001–AM0010, severities Info/Warn/Error) with source locations naming
// the task, argument, and collection involved.
//
// It is exposed three ways:
//
//   - the cmd/mapcheck CLI lints bundled applications and saved mappings,
//     exiting nonzero when Error diagnostics are present;
//   - Infeasible answers whether a mapping can launch at all, the same
//     verdict the driver's search-time pre-pruning takes from validation
//     and the simulator's placement plan;
//   - automap.Lint offers the same to library users.
//
// The memory-feasibility pass shares its arithmetic with the simulator
// (sim.PlanPlacement), so a mapping flagged infeasible here is exactly a
// mapping sim.Simulate would reject with an OOMError.
package analyze

import (
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/taskir"
)

// Context is the input of an analysis. Graph and Model are required;
// Machine enables the capacity-aware passes (feasibility, memory
// pressure); Mapping enables the mapping-dependent passes. Passes skip
// silently when their inputs are absent.
type Context struct {
	Graph *taskir.Graph
	// Machine is the concrete machine (capacities, per-node inventory).
	// Optional: without it the feasibility pass cannot run.
	Machine *machine.Machine
	// Model is the kind-level machine view. If nil and Machine is set,
	// Analyze derives it.
	Model *machine.Model
	// Mapping is the mapping under analysis. Optional: without it only
	// the program-level passes (races, dead nodes, variant coverage) run.
	Mapping *mapping.Mapping
}

// Pass is one analysis over a Context.
type Pass interface {
	// Name identifies the pass in diagnostics and -pass filters.
	Name() string
	// Run returns the pass's findings. Run must not mutate the context
	// and must not panic on structurally valid graphs.
	Run(ctx *Context) []Diagnostic
}

// DefaultPasses returns the standard pass list in execution order.
func DefaultPasses() []Pass {
	return []Pass{
		racePass{},
		variantPass{},
		legalityPass{},
		distributePass{},
		deadNodePass{},
		colocationPass{},
		feasibilityPass{},
	}
}

// Analyze runs the passes over ctx and returns the collected report. A nil
// or empty pass list runs DefaultPasses.
func Analyze(ctx *Context, passes ...Pass) *Report {
	if len(passes) == 0 {
		passes = DefaultPasses()
	}
	if ctx.Model == nil && ctx.Machine != nil {
		derived := *ctx
		derived.Model = ctx.Machine.Model()
		ctx = &derived
	}
	rep := &Report{Graph: ctx.Graph}
	for _, p := range passes {
		rep.Passes = append(rep.Passes, p.Name())
		rep.Diags = append(rep.Diags, p.Run(ctx)...)
	}
	rep.sorted()
	return rep
}

// Check is the convenience entry point: analyze program g mapped by mp on
// machine m with the default passes. mp may be nil for a program-only lint.
func Check(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping) *Report {
	return Analyze(&Context{Graph: g, Machine: m, Mapping: mp})
}

// Infeasible reports whether mapping mp is statically unexecutable on
// (m, g): it fails validation or cannot fit in memory. A true verdict means
// sim.Simulate is guaranteed to fail. It is the driver's pre-pruning verdict
// (Validate, then sim.PlanPlacement), which TestFeasibilityMatchesSimulator
// pins.
func Infeasible(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping) bool {
	if mp.Validate(g, m.Model()) != nil {
		return true
	}
	_, err := sim.PlanPlacement(m, g, mp)
	return err != nil
}
