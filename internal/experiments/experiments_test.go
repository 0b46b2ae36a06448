package experiments

import (
	"testing"
)

// tinyConfig is an even smaller protocol than QuickConfig, for unit tests.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Driver.Repeats = 2
	cfg.Driver.FinalRepeats = 3
	cfg.Budget.MaxSuggestions = 120
	cfg.BaselineRepeats = 3
	return cfg
}

func TestFig5MatchesPaper(t *testing.T) {
	rows, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if int(r.SpaceLog2+0.5) != r.PaperSpaceLog2 {
			t.Errorf("%s: space 2^%.1f vs paper 2^%d", r.Application, r.SpaceLog2, r.PaperSpaceLog2)
		}
	}
}

func TestFig6CircuitShape(t *testing.T) {
	if testing.Short() {
		t.Skip("search experiment")
	}
	rows, err := Fig6("circuit", []int{1}, 3, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// AutoMap never loses to the default mapper (paper: "AutoMap finds
	// better or equal mappings to the default mapper").
	for _, r := range rows {
		if r.AutoSpeedup < 0.97 {
			t.Errorf("%s@%d: AutoMap slower than default (%.2f)", r.Input, r.Nodes, r.AutoSpeedup)
		}
	}
	// The smallest input shows a clear speedup; it shrinks with size.
	if rows[0].AutoSpeedup < 1.5 {
		t.Errorf("smallest-input speedup = %.2f, want > 1.5", rows[0].AutoSpeedup)
	}
	if rows[2].AutoSpeedup > rows[0].AutoSpeedup {
		t.Errorf("speedup should decline with input size: %.2f -> %.2f",
			rows[0].AutoSpeedup, rows[2].AutoSpeedup)
	}
}

func TestFig7MaestroAutoMapWins(t *testing.T) {
	if testing.Short() {
		t.Skip("search experiment")
	}
	rows, err := Fig7([]int{1}, []int{32}, []int{8, 64}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// AutoMap is at least as good as both standard strategies
		// (small tolerance for measurement noise).
		best := r.DegCPUSys
		if r.DegGPUZC < best {
			best = r.DegGPUZC
		}
		if r.DegAutoMap > best*1.05 {
			t.Errorf("r%dk%d: AutoMap %.2f worse than best strategy %.2f",
				r.Resolution, r.Samples, r.DegAutoMap, best)
		}
		if r.DegAutoMap < 0.95 {
			t.Errorf("degradation below 1: %.2f", r.DegAutoMap)
		}
	}
}

func TestFig8MemoryConstrained(t *testing.T) {
	if testing.Short() {
		t.Skip("search experiment")
	}
	rows, err := Fig8("shepard", []int{1}, []float64{1.3}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if !r.DefaultOOM {
		t.Error("all-Frame-Buffer mapping should OOM")
	}
	// Paper: "AutoMap provides speedup of at least 4× compared to all
	// the data in the GPU Zero-Copy".
	if r.Speedup < 4 {
		t.Errorf("speedup over all-ZC = %.1f, want >= 4", r.Speedup)
	}
	if r.DemotedArgs == 0 {
		t.Error("AutoMap should demote some collection arguments")
	}
}

func TestFig9CCDBeatsOthers(t *testing.T) {
	if testing.Short() {
		t.Skip("search experiment")
	}
	cfg := tinyConfig()
	cfg.Budget.MaxSuggestions = 400
	traces, err := Fig9("pennant", "320x90", cfg)
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string]Fig9Trace{}
	for _, tr := range traces {
		byAlgo[tr.Algorithm] = tr
	}
	ccd, cd, ot := byAlgo["AM-CCD"], byAlgo["AM-CD"], byAlgo["AM-OT"]
	if ccd.FinalMsPerIter > cd.FinalMsPerIter*1.02 {
		t.Errorf("CCD (%.2f) worse than CD (%.2f)", ccd.FinalMsPerIter, cd.FinalMsPerIter)
	}
	if ccd.FinalMsPerIter > ot.FinalMsPerIter*1.02 {
		t.Errorf("CCD (%.2f) worse than OT (%.2f)", ccd.FinalMsPerIter, ot.FinalMsPerIter)
	}
	// CCD/CD spend ~all their time evaluating; OT much less (§5.3).
	if ccd.EvalFraction < 0.95 {
		t.Errorf("CCD eval fraction = %.2f, want ~1", ccd.EvalFraction)
	}
	if ot.EvalFraction > ccd.EvalFraction {
		t.Errorf("OT eval fraction %.2f should be below CCD's %.2f", ot.EvalFraction, ccd.EvalFraction)
	}
}

func TestFig9PanelsMatchPaper(t *testing.T) {
	panels := Fig9Panels()
	if len(panels) != 4 {
		t.Fatalf("panels = %v", panels)
	}
	if panels[0] != [2]string{"pennant", "320x90"} || panels[3] != [2]string{"htr", "16x16y18z"} {
		t.Fatalf("panels = %v", panels)
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("search experiment")
	}
	cfg := tinyConfig()
	rows, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	byVariant := map[string]AblationRow{}
	for _, r := range rows {
		byVariant[r.Ablation+"/"+r.Variant] = r
		if r.BestSec <= 0 || r.Suggested <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	// The constrained variant is never worse than plain CD.
	if ccd, cd := byVariant["colocation/constrained (CCD)"], byVariant["colocation/plain CD"]; ccd.BestSec > cd.BestSec*1.02 {
		t.Errorf("CCD (%v) worse than CD (%v)", ccd.BestSec, cd.BestSec)
	}
}

func TestPortabilityMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("search experiment")
	}
	rows, err := Portability("stencil", "2000x2000", []string{"shepard", "lassen"}, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.Executes {
			t.Errorf("%s->%s did not execute", r.TunedOn, r.RunOn)
			continue
		}
		if r.TunedOn == r.RunOn && r.PenaltyVsNative != 1 {
			t.Errorf("diagonal penalty = %v", r.PenaltyVsNative)
		}
		if r.PenaltyVsNative < 0.97 {
			t.Errorf("%s->%s penalty %v below 1: native tuning should win",
				r.TunedOn, r.RunOn, r.PenaltyVsNative)
		}
	}
}

func TestRealRuntimeHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement test")
	}
	rows, err := RealRuntime(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DefaultMs <= 0 || r.TunedMs <= 0 || r.Evaluated == 0 {
			t.Errorf("degenerate row %+v", r)
		}
		// Real measurements are noisy; the tuned mapping must not be
		// dramatically worse than the default.
		if r.Speedup < 0.7 {
			t.Errorf("%s: tuned mapping much worse than default (%.2fx)", r.Workload, r.Speedup)
		}
	}
}
