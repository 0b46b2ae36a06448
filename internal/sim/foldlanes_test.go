package sim

import (
	"math"
	"testing"

	"automap/internal/machine"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// specialNoise holds the noise values no log-normal draw produces but the
// kernel must fold exactly as foldLanes does: signed zeros, subnormals,
// infinities and NaNs of two payloads.
var specialNoise = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 0x1p-1030,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef),
}

// randomLaneFold returns a random topology, a schedule recorded over it
// and its noise block (nil in one case of four): 1–6 launches per
// iteration over 1–4 nodes, up to 3 predecessors per launch row, 1–3
// recorded iterations whose last is the body and repeats 0–3 more times,
// and up to 3 execs per launch, each after up to 3 copy ops that start new
// chains at random and run on the network or a node's copy engine, with
// an op after a launch's last exec now and then. One noise value in eight
// is special (specialNoise); of the durations one in eight is zero and one
// in sixteen special, so that NaNs and infinities reach the copy engines'
// timelines too.
func randomLaneFold(seed uint64) (*topology, *schedule, []lanes) {
	rng := xrand.New(seed)
	perIter, nodes := 1+rng.Intn(6), 1+rng.Intn(4)
	topo := &topology{
		g:       &taskir.Graph{Iterations: 1 + rng.Intn(4), SerialOverheadSec: rng.Float64() * 1e-4},
		m:       &machine.Machine{CopyEnergyPerByte: 1e-10},
		nodes:   nodes,
		launch:  make([]taskir.TaskID, perIter),
		predOff: []int32{0},
	}
	for r := 0; r < 2*perIter; r++ {
		for n := rng.Intn(4); n > 0; n-- {
			topo.preds = append(topo.preds, int32(1+rng.Intn(perIter)))
		}
		topo.predOff = append(topo.predOff, int32(len(topo.preds)))
	}
	dur := func() float64 {
		switch rng.Intn(16) {
		case 0, 1:
			return 0
		case 2:
			return specialNoise[rng.Intn(len(specialNoise))]
		}
		return rng.Float64() * 1e-3
	}
	var r recorder
	iters := 1 + rng.Intn(3)
	for li := 0; li < iters*perIter; li++ {
		for e := rng.Intn(4); e > 0; e-- {
			for o := rng.Intn(4); o > 0; o-- {
				r.newChain = r.newChain || rng.Intn(3) == 0
				r.op(dur(), dur(), int64(rng.Intn(1<<20)), rng.Intn(nodes), rng.Intn(nodes),
					machine.MemKind(rng.Intn(machine.NumMemKinds)), machine.MemKind(rng.Intn(machine.NumMemKinds)), rng.Intn(3) == 0)
			}
			r.exec(dur(), float64(1+rng.Intn(8)), 50+rng.Float64()*250, rng.Intn(nodes), machine.ProcKind(rng.Intn(machine.NumProcKinds)))
		}
		if rng.Intn(4) == 0 {
			r.newChain = true
			r.op(dur(), dur(), 1, rng.Intn(nodes), rng.Intn(nodes), 0, 0, false)
		}
		r.endLaunch()
	}
	sch := &r.sch
	sch.body, sch.reps = (iters-1)*perIter, rng.Intn(4)
	sch.finalize()
	if rng.Intn(4) == 0 {
		return topo, sch, nil
	}
	noise := make([]lanes, sch.numExecs)
	for ex := range noise {
		for l := range noise[ex] {
			if rng.Intn(8) == 0 {
				noise[ex][l] = specialNoise[rng.Intn(len(specialNoise))]
			} else {
				noise[ex][l] = rng.UnitMeanLogNormal(0.3)
			}
		}
	}
	return topo, sch, noise
}

// FuzzFoldLanesKernel folds random schedules (randomLaneFold) through the
// Go lane fold and the AVX2 kernel and requires every lane's Summary to
// match bit for bit. The one exception is which NaN a NaN result is: Go
// leaves the payload of an operation on two NaNs unspecified, and its
// compiler orders the operands of foldLanes' adds and multiplies
// differently from build to build (with -race, for one), so any two NaNs
// count as equal.
func FuzzFoldLanesKernel(f *testing.F) {
	for seed := uint64(0); seed < 256; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		if !haveAVX2 {
			t.Skip("the host has no AVX2")
		}
		topo, sch, noise := randomLaneFold(seed)
		plan := &PlacementPlan{}
		var want, got [laneWidth]Summary
		foldLanes(topo, plan, sch, noise, want[:], new(foldScratch))
		foldLanesAVX2(topo, plan, sch, noise, got[:], new(foldScratch))
		for l := range want {
			w, g := want[l], got[l]
			if !sameFloat(g.MakespanSec, w.MakespanSec) || !sameFloat(g.EnergyJoules, w.EnergyJoules) {
				t.Fatalf("seed %d lane %d: kernel makespan %x energy %x, Go fold %x %x",
					seed, l, math.Float64bits(g.MakespanSec), math.Float64bits(g.EnergyJoules),
					math.Float64bits(w.MakespanSec), math.Float64bits(w.EnergyJoules))
			}
			g.MakespanSec, g.EnergyJoules, w.MakespanSec, w.EnergyJoules = 0, 0, 0, 0
			if g != w {
				t.Fatalf("seed %d lane %d: kernel %+v, Go fold %+v", seed, l, g, w)
			}
		}
	})
}

// sameFloat reports whether a and b have the same bits or are both NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
}
