package main

import (
	"fmt"
	"math"
	"time"

	"automap/internal/mapping"
	"automap/internal/sim"
)

// replayMax bounds how many candidates each replay path times; longer
// sequences are sampled evenly (full-path timings) or cut off (delta runs).
const replayMax = 160

// replayStats holds per-call simulator timings, in microseconds, from a
// replay of a search's committed candidate sequence through internal/sim's
// public calls.
type replayStats struct {
	plan, full, fold, structure, simulate []float64
	classify, deltaRun                    []float64
}

// replaySearch re-runs the committed candidates, in commit order, through
// fresh simulator instances. An even sample of at most replayMax
// candidates times the full path:
//
//	plan       Instance.PlanPlacement on an instance that has not seen the key
//	full       cold Instance.RunKeyed on a second instance (plan + structure + fold)
//	fold       the same key again with another seed (cached structure and plan)
//	structure  full - plan - fold
//	simulate   one-shot sim.Simulate
//
// and every candidate the delta path, against the base the search had set
// when it evaluated the candidate:
//
//	classify   DeltaInstance.Classify (placement plan warmed beforehand)
//	delta.run  DeltaInstance.RunKeyed, for the first replayMax candidates
//	           classified incremental (the base's deep recording warmed
//	           beforehand)
//
// Every path must return the one-shot simulation's makespan bit for bit; a
// difference is a self-check failure.
func replaySearch(p *searchProblem, cands []committedCandidate) (*replayStats, error) {
	st := &replayStats{}
	cfgA := sim.Config{NoiseSigma: 0.04, Seed: 11}
	cfgB := sim.Config{NoiseSigma: 0.04, Seed: 12}
	us := func(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Microsecond) }
	same := func(a, b *sim.Result) bool { return math.Float64bits(a.MakespanSec) == math.Float64bits(b.MakespanSec) }

	planInst, fullInst := sim.New(p.m, p.g), sim.New(p.m, p.g)
	k := len(cands)
	if k > replayMax {
		k = replayMax
	}
	for i := 0; i < k; i++ {
		mp := cands[i*len(cands)/k].mp
		key := mp.Key()
		t := time.Now()
		if _, err := planInst.PlanPlacement(mp); err != nil {
			continue // placement failure: not a timing sample
		}
		plan := us(t)
		t = time.Now()
		cold, err := fullInst.RunKeyed(key, mp, cfgA)
		full := us(t)
		if err != nil {
			continue
		}
		t = time.Now()
		_, err = fullInst.RunKeyed(key, mp, cfgB)
		fold := us(t)
		if err != nil {
			return nil, fmt.Errorf("%w: replay fold failed after a cold run succeeded: %v", errMismatch, err)
		}
		t = time.Now()
		one, err := sim.Simulate(p.m, p.g, mp, cfgA)
		simulate := us(t)
		if err != nil || !same(one, cold) {
			return nil, fmt.Errorf("%w: sim.Simulate disagrees with Instance.RunKeyed on a committed candidate", errMismatch)
		}
		st.plan = append(st.plan, plan)
		st.full = append(st.full, full)
		st.fold = append(st.fold, fold)
		st.structure = append(st.structure, full-plan-fold)
		st.simulate = append(st.simulate, simulate)
	}

	delta := sim.NewDelta(sim.New(p.m, p.g))
	var base *mapping.Mapping
	for _, c := range cands {
		if c.base == nil {
			continue
		}
		if c.base != base {
			base = c.base
			delta.SetBase(base)
			// Running the base itself deep-records it, so the timed
			// delta runs below measure patch and fold only.
			if _, err := delta.RunKeyed(base.Key(), base, cfgA); err != nil {
				return nil, fmt.Errorf("replaying delta base: %w", err)
			}
		}
		if _, err := delta.PlanPlacement(c.mp); err != nil {
			continue
		}
		key := c.mp.Key()
		t := time.Now()
		incremental := delta.Classify(key, c.mp)
		st.classify = append(st.classify, us(t))
		if !incremental || len(st.deltaRun) >= replayMax {
			continue
		}
		t = time.Now()
		res, err := delta.RunKeyed(key, c.mp, cfgA)
		run := us(t)
		if err != nil {
			return nil, fmt.Errorf("%w: DeltaInstance.RunKeyed failed on a committed candidate: %v", errMismatch, err)
		}
		one, err := sim.Simulate(p.m, p.g, c.mp, cfgA)
		if err != nil || !same(one, res) {
			return nil, fmt.Errorf("%w: DeltaInstance.RunKeyed disagrees with sim.Simulate on a committed candidate", errMismatch)
		}
		st.deltaRun = append(st.deltaRun, run)
	}
	return st, nil
}

// report sets the replay's per-layer metrics (medians; 0 where a path had
// no samples).
func (st *replayStats) report(meas *measurement) {
	note := fmt.Sprintf("median over %d replayed candidates", len(st.full))
	meas.set("sim.plan_us", median(st.plan), note)
	meas.set("sim.full_us", median(st.full), note)
	meas.set("sim.fold_us", median(st.fold), note)
	meas.set("sim.structure_us", median(st.structure), note)
	meas.set("sim.simulate_us", median(st.simulate), note)
	meas.set("sim.delta.classify_us", median(st.classify), fmt.Sprintf("median over %d classified candidates", len(st.classify)))
	meas.set("sim.delta.run_us", median(st.deltaRun), fmt.Sprintf("median over %d incremental candidates", len(st.deltaRun)))
}
