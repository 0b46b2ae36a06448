// Machine-sensitivity / portability: the paper's core motivation is that
// "porting to a new machine, modifying the application, or using a
// different input size may necessitate re-tuning the mapping to maintain
// the best possible performance" (Abstract). This harness quantifies it:
// tune a workload on each machine, then cross-evaluate every tuned mapping
// on every machine. The diagonal is the freshly tuned performance; the
// off-diagonal shows how stale another machine's mapping is.

package experiments

import (
	"fmt"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/search"
)

// PortabilityRow is one (tuned-on, evaluated-on) cell.
type PortabilityRow struct {
	App     string
	Input   string
	TunedOn string
	RunOn   string
	Sec     float64
	// PenaltyVsNative is Sec divided by the mapping tuned natively for
	// RunOn (1.0 on the diagonal; > 1 means the ported mapping is
	// stale).
	PenaltyVsNative float64
	// Executes is false when the ported mapping cannot run at all on
	// the target (e.g. capacity differences).
	Executes bool
}

// Portability tunes appName/input on each named cluster (1 node) and
// cross-evaluates the tuned mappings.
func Portability(appName, input string, clusters []string, cfg Config) ([]PortabilityRow, error) {
	app, err := apps.Get(appName)
	if err != nil {
		return nil, err
	}
	type tuned struct {
		name string
		m    *machine.Machine
		best *mapping.Mapping
	}
	var tunedList []tuned
	for _, cname := range clusters {
		spec, err := cluster.Spec(cname)
		if err != nil {
			return nil, err
		}
		m := cluster.Build(spec, 1)
		g, err := app.Build(input, 1)
		if err != nil {
			return nil, err
		}
		rep, err := driver.Search(m, g, search.NewCCD(), cfg.Driver, cfg.Budget)
		if err != nil {
			return nil, fmt.Errorf("tuning on %s: %w", cname, err)
		}
		tunedList = append(tunedList, tuned{name: cname, m: m, best: rep.Best})
	}

	// Cross-evaluate: native diagonal first so penalties can be derived.
	native := make(map[string]float64)
	var rows []PortabilityRow
	for _, target := range tunedList {
		for _, source := range tunedList {
			g, err := app.Build(input, 1)
			if err != nil {
				return nil, err
			}
			row := PortabilityRow{
				App: appName, Input: input,
				TunedOn: source.name, RunOn: target.name,
			}
			// The ported mapping may violate the target's model only
			// in fallback details; sanitize before running (the
			// runtime would reject it otherwise).
			mp := source.best.Clone()
			mp.Sanitize(g, target.m.Model())
			sec, err := measure(cfg, target.m, g, mp)
			if err == nil {
				row.Sec = sec
				row.Executes = true
				if source.name == target.name {
					native[target.name] = sec
				}
			}
			rows = append(rows, row)
		}
	}
	for i := range rows {
		if n := native[rows[i].RunOn]; n > 0 && rows[i].Executes {
			rows[i].PenaltyVsNative = rows[i].Sec / n
		}
	}
	return rows, nil
}
