// Figure 8: Pennant memory-constrained experiments on Shepard and Lassen.
// The inputs are 1.3%, 7.1% and 14.3% larger than the largest mesh that
// fits entirely in Frame-Buffer memory; the all-Frame-Buffer default
// mapping fails with an out-of-memory error, the straightforward
// all-Zero-Copy mapping is slow, and AutoMap finds a subset of collections
// to demote, achieving speedups of up to ~50×.

package experiments

import (
	"fmt"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/mapper"
	"automap/internal/search"
	"automap/internal/sim"
)

// Fig8Row is one bar pair of Figure 8.
type Fig8Row struct {
	Cluster string
	Nodes   int
	// OverPct is how much the input exceeds the Frame-Buffer capacity.
	OverPct float64
	// GPUZCSec is the all-Zero-Copy execution time; AutoMapSec the
	// searched mapping's time.
	GPUZCSec   float64
	AutoMapSec float64
	Speedup    float64
	// DemotedArgs counts collection arguments AutoMap left outside
	// Frame-Buffer memory (primary choice ZC or System).
	DemotedArgs int
	// DefaultOOM records that the all-Frame-Buffer mapping failed.
	DefaultOOM bool
}

// Fig8 reproduces the memory-constrained experiment for one cluster.
func Fig8(clusterName string, nodeCounts []int, overPcts []float64, cfg Config) ([]Fig8Row, error) {
	spec, err := cluster.Spec(clusterName)
	if err != nil {
		return nil, err
	}
	app, err := apps.Get("pennant")
	if err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for _, nodes := range nodeCounts {
		m := cluster.Build(spec, nodes)
		md := m.Model()
		for _, pct := range overPcts {
			// Inputs are sized per GPU, matching the paper's
			// "zones per GPU" (Lassen nodes carry four GPUs).
			in := fmt.Sprintf("mem+%.1f", pct)
			if spec.GPUsPerNode > 1 {
				in = fmt.Sprintf("mem+%.1f@%d", pct, spec.GPUsPerNode)
			}
			g, err := app.Build(in, nodes)
			if err != nil {
				return nil, err
			}
			// A strict all-Frame-Buffer mapping must not fit.
			_, defErr := sim.Simulate(m, g, mapper.AllFrameBufferStrict(g, md), sim.Config{})
			_, isOOM := defErr.(*sim.OOMError)

			zcSec, err := measure(cfg, m, g, mapper.AllZeroCopy(g, md))
			if err != nil {
				return nil, fmt.Errorf("pennant %s all-ZC on %s: %w", in, clusterName, err)
			}
			rep, err := driver.Search(m, g, search.NewCCD(), cfg.Driver, cfg.Budget)
			if err != nil {
				return nil, fmt.Errorf("pennant %s automap on %s: %w", in, clusterName, err)
			}
			demoted := 0
			for _, t := range g.Tasks {
				d := rep.Best.Decision(t.ID)
				for a := range t.Args {
					if d.PrimaryMem(a) != machine.FrameBuffer {
						demoted++
					}
				}
			}
			rows = append(rows, Fig8Row{
				Cluster: clusterName, Nodes: nodes, OverPct: pct,
				GPUZCSec: zcSec, AutoMapSec: rep.FinalSec,
				Speedup:     zcSec / rep.FinalSec,
				DemotedArgs: demoted,
				DefaultOOM:  isOOM,
			})
		}
	}
	return rows, nil
}
