package sim

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

func TestInstanceRunMatchesSimulate(t *testing.T) {
	m := cluster.Shepard(2)
	g := simpleGraph(8, 1<<22)
	md := m.Model()

	var mps []*mapping.Mapping
	for _, k := range []machine.ProcKind{machine.CPU, machine.GPU} {
		for _, dist := range []bool{true, false} {
			mp := mapping.Default(g, md)
			for _, task := range g.Tasks {
				mp.SetProc(task.ID, k)
				mp.RebuildPriorityLists(md, task.ID)
				mp.SetDistribute(task.ID, dist)
			}
			mps = append(mps, mp)
		}
	}

	inst := New(m, g)
	// Interleave mappings and repeat the sweep so pooled state and cached
	// plans are reused across differing runs — any cross-run aliasing or
	// stale scratch shows up as a result mismatch.
	for round := 0; round < 3; round++ {
		for i, mp := range mps {
			cfg := Config{NoiseSigma: 0.05, Seed: uint64(100*round + i)}
			want, errW := Simulate(m, g, mp, cfg)
			got, errG := inst.RunKeyed(mp.Key(), mp, cfg)
			if (errW == nil) != (errG == nil) {
				t.Fatalf("round %d mapping %d: Simulate err=%v, Instance.RunKeyed err=%v", round, i, errW, errG)
			}
			if errW != nil {
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("round %d mapping %d: Instance.RunKeyed result differs from Simulate:\nwant %+v\ngot  %+v", round, i, want, got)
			}
		}
	}
}

func TestInstanceResultsDetached(t *testing.T) {
	m := cluster.Shepard(1)
	g := simpleGraph(4, 1<<20)
	mp := mapping.Default(g, m.Model())
	inst := New(m, g)

	a, err := inst.RunKeyed(mp.Key(), mp, Config{NoiseSigma: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snapshot := *a
	wall := make(map[int64]float64)
	for k, v := range a.TaskWallSec {
		wall[int64(k)] = v
	}
	// A second run recycles the pooled state; the first result must not
	// change underneath the caller.
	if _, err := inst.RunKeyed(mp.Key(), mp, Config{NoiseSigma: 0.1, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if a.MakespanSec != snapshot.MakespanSec || a.BytesCopied != snapshot.BytesCopied {
		t.Fatal("earlier result mutated by a later run")
	}
	for k, v := range a.TaskWallSec {
		if wall[int64(k)] != v {
			t.Fatal("earlier result's TaskWallSec mutated by a later run")
		}
	}
}

// schedFor returns RunKeyed's cached schedule for key, or nil.
func (in *Instance) schedFor(key string) *schedule {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.scheds[key]
}

// dropSchedule forgets key's cached schedule, so the next RunKeyed of key
// records again.
func (in *Instance) dropSchedule(key string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.scheds, key)
}

// TestPlanCacheHitMiss pins the plan cache: a revisit of a mapping, under
// any config and through either run path, returns the plan its first run
// made, and another mapping gets a plan of its own.
func TestPlanCacheHitMiss(t *testing.T) {
	m := cluster.Shepard(1)
	g := simpleGraph(4, 1<<20)
	md := m.Model()
	inst := New(m, g)

	mp := mapping.Default(g, md)
	if _, err := inst.RunKeyed(mp.Key(), mp, Config{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	plan, err := inst.PlanPlacement(mp)
	if err != nil {
		t.Fatal(err)
	}
	// Same mapping (the 7-repeat protocol): plan is reused.
	for i := 0; i < 6; i++ {
		if _, err := inst.RunKeyed(mp.Key(), mp, Config{Seed: uint64(2 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := runRepeats(hostLanes, inst, mp, 0.04, repeatSeeds(7)); err != nil {
		t.Fatal(err)
	}
	if again, _ := inst.PlanPlacement(mp); again != plan {
		t.Fatal("a revisit of the mapping planned placement again")
	}
	// A different mapping gets its own plan.
	mp2 := mapping.Default(g, md)
	mp2.SetDistribute(0, !mp2.Decision(0).Distribute)
	if _, err := inst.RunKeyed(mp2.Key(), mp2, Config{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if plan2, _ := inst.PlanPlacement(mp2); plan2 == plan {
		t.Fatal("another mapping was served the first mapping's plan")
	}
}

// TestNoiseTapeBound pins the noise tape length: every app × node count ×
// mapping of the fold corpus records at most tapeLen execs, so a fold
// never reads past the tape drawn once at that length. The bound is
// tight: on one node every mapping of every app records exactly tapeLen.
func TestNoiseTapeBound(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		m := cluster.Shepard(nodes)
		md := m.Model()
		probs := appProblems(t, nodes)
		for ai, name := range apps.Names() {
			g := probs[name]
			inst := New(m, g)
			rng := xrand.New(0xC0A905 + uint64(nodes)*131 + uint64(ai))
			for i, mp := range corpusMappings(g, md, rng) {
				plan, err := inst.PlanPlacement(mp)
				if err != nil {
					continue
				}
				if n := new(state).record(plan).numExecs; n > inst.tapeLen {
					t.Errorf("%s/n%d/m%d: %d execs, noise tape holds %d", name, nodes, i, n, inst.tapeLen)
				}
			}
		}
	}
}

// repeatSeeds returns n distinct noise seeds.
func repeatSeeds(n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = 0x9E37 + uint64(i)*7919
	}
	return seeds
}

// runRepeats is RunRepeats with lane fold lf, returning a fresh Summary
// slice.
func runRepeats(lf laneFold, in *Instance, mp *mapping.Mapping, sigma float64, seeds []uint64) ([]Summary, error) {
	out := make([]Summary, len(seeds))
	if err := in.runRepeats(lf, mp.Key(), mp, sigma, seeds, out); err != nil {
		return nil, err
	}
	return out, nil
}

// forEachLaneFold runs f as a subtest per lane fold: the Go fold
// (portable) everywhere, the AVX2 kernel (avx2) where the host has it.
func forEachLaneFold(t *testing.T, f func(t *testing.T, lf laneFold)) {
	t.Run("portable", func(t *testing.T) { f(t, portableLanes) })
	t.Run("avx2", func(t *testing.T) {
		if !haveAVX2 {
			t.Skip("the host has no AVX2")
		}
		f(t, avx2Lanes)
	})
}

// requireRepeatsMatch checks every Summary of RunRepeats against the
// fields of a RunKeyed Result on ref under that lane's seed.
func requireRepeatsMatch(t *testing.T, ctx string, got []Summary, ref *Instance, mp *mapping.Mapping, sigma float64, seeds []uint64) {
	t.Helper()
	if len(got) != len(seeds) {
		t.Fatalf("%s: %d summaries for %d seeds", ctx, len(got), len(seeds))
	}
	for i, seed := range seeds {
		want, err := ref.RunKeyed(mp.Key(), mp, Config{NoiseSigma: sigma, Seed: seed})
		if err != nil {
			t.Fatalf("%s: RunKeyed: %v", ctx, err)
		}
		if got[i] != want.Summarize() {
			t.Fatalf("%s lane %d: summary %+v, RunKeyed fields %+v", ctx, i, got[i], want.Summarize())
		}
	}
}

// TestRepeatsMatchRunKeyed is the oracle of the lane-wise folds: with
// each lane fold, every Summary RunRepeats writes must equal the fields of
// RunKeyed's Result under that seed bit for bit, for every app and node
// count, default and random mappings, with and without noise, and seed
// counts on both sides of the lane-block edges (scalar remainder, one
// partial block, full blocks, a block plus one). An OOM mapping returns
// the same error value from both calls.
func TestRepeatsMatchRunKeyed(t *testing.T) {
	forEachLaneFold(t, testRepeatsMatchRunKeyed)
}

func testRepeatsMatchRunKeyed(t *testing.T, lf laneFold) {
	counts := []int{1, 3, 7, 8, 9, 31}
	for _, nodes := range []int{1, 2, 4} {
		for name, g := range appProblems(t, nodes) {
			m := cluster.Shepard(nodes)
			md := m.Model()
			mps := []*mapping.Mapping{mapping.Default(g, md)}
			rng := xrand.New(0x1A4E5 + uint64(nodes))
			for i := 0; i < 2; i++ {
				mp := mps[0].CloneCOW()
				for f := 1 + rng.Intn(4); f > 0; f-- {
					applyRandomMove(rng, g, md, mp)
				}
				mps = append(mps, mp)
			}
			inst, ref := New(m, g), New(m, g)
			for i, mp := range mps {
				for _, sigma := range []float64{0, 0.04} {
					for _, n := range counts {
						ctx := fmt.Sprintf("%s/%d mapping %d sigma %v seeds %d", name, nodes, i, sigma, n)
						got, err := runRepeats(lf, inst, mp, sigma, repeatSeeds(n))
						if err != nil {
							if _, werr := ref.RunKeyed(mp.Key(), mp, Config{}); werr == nil || werr.Error() != err.Error() {
								t.Fatalf("%s: RunRepeats err %v, RunKeyed err %v", ctx, err, werr)
							}
							continue
						}
						requireRepeatsMatch(t, ctx, got, ref, mp, sigma, repeatSeeds(n))
					}
				}
			}
		}
	}

	// OOM: both calls return the plan cache's one error value.
	m := cluster.Shepard(1)
	g := simpleGraph(4, 20<<30) // 20 GB > 16 GB FB
	oom := mapping.Default(g, m.Model())
	for id := range g.Tasks {
		dec := oom.Decision(taskir.TaskID(id))
		for a := range dec.Mems {
			dec.Mems[a] = []machine.MemKind{machine.FrameBuffer}
		}
	}
	in := New(m, g)
	got, err := runRepeats(lf, in, oom, 0.04, repeatSeeds(7))
	if _, ok := err.(*OOMError); !ok || got != nil {
		t.Fatalf("RunRepeats on an OOM mapping: summaries %v, err %v; want *OOMError", got, err)
	}
	if _, kerr := in.RunKeyed(oom.Key(), oom, Config{NoiseSigma: 0.04, Seed: 1}); kerr != err {
		t.Fatalf("RunKeyed err %v is not RunRepeats err %v", kerr, err)
	}
}

// reuseProblem returns pennant on 4 nodes with two mappings whose schedules
// differ widely in size: the default mapping (distributed, many copies) and
// one that runs every task undistributed on a CPU (few execs, few copies).
func reuseProblem(t *testing.T) (*machine.Machine, *taskir.Graph, *mapping.Mapping, *mapping.Mapping) {
	t.Helper()
	g := appProblems(t, 4)["pennant"]
	m := cluster.Shepard(4)
	md := m.Model()
	large := mapping.Default(g, md)
	small := large.Clone()
	for id := range g.Tasks {
		tid := taskir.TaskID(id)
		small.SetDistribute(tid, false)
		if g.Task(tid).HasVariant(machine.CPU) {
			small.SetProc(tid, machine.CPU)
			small.RebuildPriorityLists(md, tid)
		}
	}
	return m, g, large, small
}

// TestRecycledScheduleReuse runs one Instance through mappings of very
// different schedule sizes (large → small → large), so every recording
// reuses a scratch buffer last filled by a longer or shorter schedule.
// Every repeat's Summary must equal the fields of a fresh instance's
// RunKeyed bit for bit,
// RunRepeats must leave nothing in the schedule cache, and RunKeyed must
// still cache a schedule identical to a fresh record.
func TestRecycledScheduleReuse(t *testing.T) {
	m, g, large, small := reuseProblem(t)
	seeds := repeatSeeds(9)
	step := func(ctx string, in, ref *Instance, mp *mapping.Mapping) {
		t.Helper()
		key := mp.Key()
		// An earlier step's RunKeyed cached this key's schedule; forget
		// it so this step records.
		in.dropSchedule(key)
		got, err := runRepeats(hostLanes, in, mp, 0.04, seeds)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		if in.schedFor(key) != nil {
			t.Fatalf("%s: RunRepeats cached a schedule", ctx)
		}
		requireRepeatsMatch(t, ctx, got, ref, mp, 0.04, seeds)
		cfg := Config{NoiseSigma: 0.04, Seed: 3, Trace: true, Explain: true}
		res, err := in.RunKeyed(key, mp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		want, err := ref.RunKeyed(key, mp, cfg)
		if err != nil {
			t.Fatalf("%s: %v", ctx, err)
		}
		requireSameResult(t, ctx+" RunKeyed", res, want)
		// The cached copy must equal a fresh record field for field: a
		// recording into recycled scratch carries nothing over from the
		// one before it.
		sch, fresh := in.schedFor(key), ref.schedFor(key)
		if sch == nil || fresh == nil {
			t.Fatalf("%s: RunKeyed cached no schedule (recycled %v, fresh %v)", ctx, sch != nil, fresh != nil)
		}
		if !reflect.DeepEqual(sch, fresh) {
			t.Fatalf("%s: schedule recorded into recycled scratch differs from a fresh record", ctx)
		}
	}

	in := New(m, g)
	for i, mp := range []*mapping.Mapping{large, small, large, small, large} {
		step(fmt.Sprintf("instance step %d", i), in, New(m, g), mp)
	}
	if nl, ns := len(in.schedFor(large.Key()).ops), len(in.schedFor(small.Key()).ops); nl < 4*ns {
		t.Fatalf("large mapping records %d ops, small %d: too close to exercise buffer reuse", nl, ns)
	}
}

// TestRecycledScheduleReuseConcurrent is TestRecycledScheduleReuse with 4
// goroutines sharing one Instance: every worker records into pooled
// scratch, and every result must still equal a fresh instance's. Run
// under -race it checks that no scratch is shared between concurrent
// evaluations.
func TestRecycledScheduleReuseConcurrent(t *testing.T) {
	m, g, large, small := reuseProblem(t)
	seeds := repeatSeeds(7)
	var mps []*mapping.Mapping
	for _, base := range []*mapping.Mapping{large, small} {
		cand := base.CloneCOW()
		cand.SetDistribute(0, !base.Decision(0).Distribute)
		mps = append(mps, base, cand)
	}
	want := make([][]*Result, len(mps))
	for i, mp := range mps {
		ref := New(m, g)
		for _, seed := range seeds {
			res, err := ref.RunKeyed(mp.Key(), mp, Config{NoiseSigma: 0.04, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], res)
		}
	}

	in := New(m, g)
	rounds := 6
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(mps)
				mp := mps[i]
				got, err := runRepeats(hostLanes, in, mp, 0.04, seeds)
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				res, err := in.RunKeyed(mp.Key(), mp, Config{NoiseSigma: 0.04, Seed: seeds[r%len(seeds)]})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, r, err)
					return
				}
				in.dropSchedule(mp.Key())
				for l := range got {
					if got[l] != want[i][l].Summarize() {
						t.Errorf("worker %d round %d mapping %d lane %d: summary differs from a fresh instance's RunKeyed", w, r, i, l)
					}
				}
				if !reflect.DeepEqual(res, want[i][r%len(seeds)]) {
					t.Errorf("worker %d round %d mapping %d: RunKeyed differs from a fresh instance", w, r, i)
				}
			}
		}()
	}
	wg.Wait()
}
