package experiments

import (
	"math"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/sim"
)

// TestGoldenDefaultMakespans pins the noiseless default-mapping makespan of
// one representative input per application. The simulator is deterministic,
// so these are exact regression anchors for the calibrated cost model: if a
// change moves one of these numbers, the figures in EXPERIMENTS.md no
// longer describe the repository and must be regenerated
// (`make experiments`) before updating the expectations here.
func TestGoldenDefaultMakespans(t *testing.T) {
	golden := []struct {
		app, input, cluster string
		wantSec             float64
	}{
		{"circuit", "n50w200", "shepard", 0.031027},
		{"circuit", "n12800w51200", "shepard", 0.374576},
		{"stencil", "2000x2000", "shepard", 0.081195},
		{"pennant", "320x90", "shepard", 0.395811},
		{"htr", "8x8y9z", "shepard", 0.452345},
		{"maestro", "r32k32", "lassen", 0.905540},
	}
	for _, gcase := range golden {
		app, err := apps.Get(gcase.app)
		if err != nil {
			t.Fatal(err)
		}
		g, err := app.Build(gcase.input, 1)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := cluster.Spec(gcase.cluster)
		if err != nil {
			t.Fatal(err)
		}
		m := cluster.Build(spec, 1)
		res, err := sim.Simulate(m, g, mapping.Default(g, m.Model()), sim.Config{})
		if err != nil {
			t.Fatalf("%s %s: %v", gcase.app, gcase.input, err)
		}
		if math.Abs(res.MakespanSec-gcase.wantSec)/gcase.wantSec > 1e-4 {
			t.Errorf("%s %s on %s: makespan %.6f, golden %.6f — cost model changed;"+
				" regenerate EXPERIMENTS.md before updating this anchor",
				gcase.app, gcase.input, gcase.cluster, res.MakespanSec, gcase.wantSec)
		}
	}
}
