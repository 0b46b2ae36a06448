package driver

import (
	"testing"

	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/taskir"
)

// TestMeasureRunsOneCall pins the measurement protocol: measureRuns
// returns the Summaries of seeds runSeed(base, i) in repeat order, each
// equal to the fields of RunKeyed's Result at that seed; a placement
// failure is returned as the error with zero Summaries. One scratch serves
// every call, as in an evaluator: a new base re-derives the seeds, and a
// failure after a success leaves none of the earlier Summaries behind.
func TestMeasureRunsOneCall(t *testing.T) {
	const repeats, base = 7, uint64(0xC0FFEE)
	m := cluster.Shepard(1)
	g := driverGraph(t)
	mp := mapping.Default(g, m.Model())

	var s runScratch
	ref := sim.New(m, g)
	for _, b := range []uint64{base, base + 1} {
		sums, err := s.measureRuns(sim.New(m, g), mp.Key(), mp, repeats, 0.04, b)
		if err != nil || len(sums) != repeats {
			t.Fatalf("got %d summaries, error %v; want %d and no error", len(sums), err, repeats)
		}
		for i := range repeats {
			want, err := ref.RunKeyed(mp.Key(), mp, sim.Config{NoiseSigma: 0.04, Seed: runSeed(b, i)})
			if err != nil {
				t.Fatal(err)
			}
			if sums[i] != want.Summarize() {
				t.Errorf("base %#x repeat %d: summary %+v; want the run under runSeed(base, %d), %+v", b, i, sums[i], i, want.Summarize())
			}
		}
	}

	// A footprint beyond FB+ZC: the default GPU mapping cannot be placed.
	og := taskir.NewGraph("oom")
	c := og.AddCollection(taskir.Collection{Name: "huge", Space: "s", Lo: 0, Hi: 100 << 30, Partitioned: true})
	og.AddTask(taskir.GroupTask{Name: "t", Points: 4,
		Variants: map[machine.ProcKind]taskir.Variant{machine.GPU: {Efficiency: 1, WorkPerPoint: 1e6}},
		Args:     []taskir.Arg{{Collection: c.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 20}}})
	og.Iterations = 2
	oom := mapping.Default(og, m.Model())
	sums, err := s.measureRuns(sim.New(m, og), oom.Key(), oom, repeats, 0.04, base)
	if _, ok := err.(*sim.OOMError); !ok {
		t.Fatalf("OOM: error %v, want *sim.OOMError", err)
	}
	if len(sums) != repeats {
		t.Fatalf("OOM: got %d summaries, want %d", len(sums), repeats)
	}
	for i := range repeats {
		if sums[i] != (sim.Summary{}) {
			t.Errorf("OOM repeat %d: summary %+v, want zero", i, sums[i])
		}
	}
}
