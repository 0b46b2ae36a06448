// Recorded schedules: the structure/timing split of the simulator
// (DESIGN §14).
//
// A simulation factors into two passes:
//
//   - a STRUCTURE pass (state.record in sim.go) that decides which copy
//     operations and task executions occur, with what noise-free
//     durations — a pure function of the placement plan and the
//     coherence (validity-set) state — and records them into a schedule;
//     and
//   - a TIMING fold that replays those records in order, carrying only
//     the availability timelines (processors, copy engines, network) and
//     the finish times of the launches still to be waited for, and
//     applies the config's noise.
//
// The structure pass has no clock and takes no Config, so a schedule
// cannot depend on noise: Instance records each candidate once and takes
// every repeat's outcome from the fold of that schedule, and the fold is
// the only place an outcome is computed. The golden corpus
// (testdata/fold_corpus.txt) pins those Results bit for bit. A measured
// repeat needs only a Summary, the six scalars of a Result: foldSchedule
// builds a Result's per-task and per-kind maps and its logs only for a
// caller that passes one. The repeats of one candidate differ only in
// their noise tape, so foldLanes folds up to laneWidth of them in one pass
// over the schedule into Summaries, each lane repeating foldSchedule's
// float operations exactly (TestRepeatsMatchRunKeyed). On amd64 hosts with
// AVX2 an assembly kernel folds each launch's lanes in ymm registers
// (foldlanes_amd64.s), bit-identical to foldLanes (FuzzFoldLanesKernel);
// foldLanes is the lane fold everywhere else and the kernel's oracle.
//
// The applications are fixed-iteration loops, and the structure pass runs
// each launch only until the loop reaches its steady state. A launch's
// records depend on the plan and the coherence state alone, so once the
// coherence state at the start of an iteration equals its state at the
// start of the previous one, every remaining iteration records exactly
// what the previous one did. state.record stops there: a schedule holds
// the iterations it recorded, and the last of them (the body) repeats reps
// more times. Both folds walk the recorded launches and then replay the
// body reps times, and the noise index, the Trace iteration number and the
// finish ring carry on across the repetitions, so an outcome is what the
// fold of the fully written-out schedule gives (the golden corpus pins it).
// TestSteadyRecordMatchesFull expands every compressed schedule and
// compares it with a recording that runs every launch, and requires the
// fixed point to fire; TestScheduleRecordCounts pins the whole-run counts.
// Legion's dynamic tracing (Lee et al., SC '18) memoizes a repeated loop
// body the same way.
//
// The fold does not track which collections a launch reads or writes. A
// launch is ready at the latest finish time among its predecessors: the
// topology's transitively reduced list of the earlier launches it
// conflicts with (buildLaunchDAG in topology.go argues that this max is
// bit-identical to the max over every conflict). No predecessor lies more
// than one iteration back, so the fold keeps the finish times of only the
// last perIter+1 launches, in a ring.
package sim

import (
	"automap/internal/machine"
	"automap/internal/taskir"
)

// copyOp is one recorded copy operation. The duration is stored as the
// two terms the cost model adds separately (durA = latency term, durB =
// bandwidth term; durB is 0 for intra-node copies), and the fold adds
// them in that order: start + durA + durB. chainFirst marks the first op
// of an ensure* call: ops within a chain gate on each other, chains within
// a launch all start from the launch's ready time.
type copyOp struct {
	durA, durB float64
	bytes      int64
	srcNode    int32
	dstNode    int32
	srcKind    machine.MemKind
	dstKind    machine.MemKind
	network    bool
	chainFirst bool
}

// execRec is one recorded task execution on one node. durBase is the
// pre-noise duration; the fold multiplies it by the config's noise draw
// for this execution (one draw per exec, in exec order). Ops [opOff,
// opEnd) are the coherence copies that precede this execution.
type execRec struct {
	durBase float64
	activeF float64 // float64(active) at record time
	powerW  float64
	opOff   int32
	opEnd   int32
	node    int32
	kind    machine.ProcKind
}

// launchRec closes one task launch: cumulative op/exec counts. The
// launch's records are the ranges since the previous launch's ends.
type launchRec struct {
	opEnd   int32
	execEnd int32
}

// schedule is the recorded structure of one full simulation: the copy
// ops, executions and launch boundaries of the iterations the structure
// pass ran, in commit order, followed by reps more runs of the body, the
// launches [body, len(launches)) of the last recorded iteration. The copy
// totals and numExecs count the whole run, repetitions included.
type schedule struct {
	ops      []copyOp
	execs    []execRec
	launches []launchRec
	body     int
	reps     int

	bytesCopied int64
	netBytes    int64
	numCopies   int
	numExecs    int
}

// bodyStart returns the op and exec indices the body's records start at.
func (sch *schedule) bodyStart() (int, int) {
	if sch.body == 0 {
		return 0, 0
	}
	l := sch.launches[sch.body-1]
	return int(l.opEnd), int(l.execEnd)
}

// summary returns the Summary of a fold of sch under plan that reached
// makespan (before the serial overhead) and the given execution energy.
func (sch *schedule) summary(topo *topology, plan *PlacementPlan, makespan, energy float64) Summary {
	g := topo.g
	return Summary{
		MakespanSec:    makespan + float64(g.Iterations)*g.SerialOverheadSec,
		EnergyJoules:   energy + float64(sch.bytesCopied)*topo.m.CopyEnergyPerByte,
		BytesCopied:    sch.bytesCopied,
		BytesOnNetwork: sch.netBytes,
		NumCopies:      sch.numCopies,
		Spills:         plan.Spills,
	}
}

// finalize computes the whole run's copy totals and execution count: the
// body's records count reps more times.
func (sch *schedule) finalize() {
	opLo, exLo := sch.bodyStart()
	var total, net int64
	for i := range sch.ops {
		n := int64(1)
		if i >= opLo {
			n += int64(sch.reps)
		}
		total += n * sch.ops[i].bytes
		if sch.ops[i].network {
			net += n * sch.ops[i].bytes
		}
	}
	sch.bytesCopied = total
	sch.netBytes = net
	sch.numCopies = len(sch.ops) + sch.reps*(len(sch.ops)-opLo)
	sch.numExecs = len(sch.execs) + sch.reps*(len(sch.execs)-exLo)
}

// recorder is the schedule the structure pass writes. Every state carries
// one as its scratch (state.scratch), so recordings reuse the buffers of
// earlier ones: a buffer's capacity is the longest recording its state has
// served.
type recorder struct {
	sch schedule

	// newChain marks that the next recorded op begins a new ensure*
	// chain (set by ensureShared and ensureShard on entry).
	newChain bool
	// opCursor is the op count consumed by previous exec records; the
	// ops since it belong to the next exec.
	opCursor int
}

// reset empties r for a new recording, keeping the capacity of every
// buffer.
func (r *recorder) reset() {
	old := r.sch
	*r = recorder{sch: schedule{
		ops:      old.ops[:0],
		execs:    old.execs[:0],
		launches: old.launches[:0],
	}}
}

// clone returns a copy of sch whose buffers are exactly as long as its
// records: the form a schedule takes when it outlives the scratch it was
// recorded into (the schedule cache).
func (sch *schedule) clone() *schedule {
	c := *sch
	c.ops = exact(sch.ops)
	c.execs = exact(sch.execs)
	c.launches = exact(sch.launches)
	return &c
}

// exact returns a copy of s with capacity len(s), nil when s is empty.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	c := make([]T, len(s))
	copy(c, s)
	return c
}

// op records one copy operation, consuming a pending chain marker.
func (r *recorder) op(durA, durB float64, bytes int64, srcNode, dstNode int, srcKind, dstKind machine.MemKind, network bool) {
	r.sch.ops = append(r.sch.ops, copyOp{
		durA: durA, durB: durB, bytes: bytes,
		srcNode: int32(srcNode), dstNode: int32(dstNode),
		srcKind: srcKind, dstKind: dstKind,
		network: network, chainFirst: r.newChain,
	})
	r.newChain = false
}

// exec records one task execution; the ops recorded since the previous
// exec are its coherence-copy range.
func (r *recorder) exec(durBase, activeF, powerW float64, node int, kind machine.ProcKind) {
	r.sch.execs = append(r.sch.execs, execRec{
		durBase: durBase, activeF: activeF, powerW: powerW,
		opOff: int32(r.opCursor), opEnd: int32(len(r.sch.ops)),
		node: int32(node), kind: kind,
	})
	r.opCursor = len(r.sch.ops)
}

// endLaunch closes the current launch's record ranges.
func (r *recorder) endLaunch() {
	r.sch.launches = append(r.sch.launches, launchRec{
		opEnd:   int32(len(r.sch.ops)),
		execEnd: int32(len(r.sch.execs)),
	})
	r.opCursor = len(r.sch.ops)
	r.newChain = false
}

// rewind returns where a fold's next pass over sch starts: the body's
// first launch, op and exec, and the noise tape advanced past the body's
// draws just consumed, so that noise[exIdx] stays exec exIdx's draw of the
// current repetition.
func rewind[T any](sch *schedule, noise []T) (int, int, int, []T) {
	op, ex := sch.bodyStart()
	if noise != nil {
		noise = noise[len(sch.execs)-ex:]
	}
	return sch.body, op, ex, noise
}

// foldScratch is the recycled working set of the folds: the availability
// timelines and launch finish ring of a timing replay.
type foldScratch struct {
	procAvail []float64 // [node*NumProcKinds + kind]
	copyAvail []float64 // per node
	finish    []float64 // ring of the last perIter+1 launches' finish times
	taskWall  []float64 // per task, summed into TaskWallSec at the end
	busy      [machine.NumProcKinds]float64
	seen      [machine.NumProcKinds]bool

	// The availability timelines and finish ring, one lane block per
	// element, for foldLanes.
	laneProc   []lanes
	laneCopy   []lanes
	laneFinish []lanes
}

// laneWidth is the number of repeats one foldLanes pass carries. The
// timelines are fixed-size arrays rather than slices: with the width a
// compile-time constant the per-lane loops carry no bounds checks, which
// is what makes one pass over the schedule cheaper than laneWidth folds.
const laneWidth = 8

// laneFold is one implementation of the lane fold, and min the smallest
// number of repeats worth one of its blocks; fewer fold one at a time
// through foldSchedule. A block does the work of laneWidth lanes whatever
// the number of real ones.
type laneFold struct {
	fold func(topo *topology, plan *PlacementPlan, sch *schedule, noise []lanes, out []Summary, fs *foldScratch)
	min  int
}

var (
	// portableLanes is the Go lane fold. On a 2-vCPU x86-64 host its
	// block cost 4.3–5.2 scalar folds (pennant 320x720 on 1 and 4 nodes,
	// htr 32x256y36z on 2): at 5 seeds a block beat 5 scalar folds on
	// pennant but broke even or lost on htr, and at 6 it won on all three.
	portableLanes = laneFold{foldLanes, 6}
	// avx2Lanes is the AVX2 kernel. Its block of 1 or 3 real seeds cost
	// 21 µs against 46 µs for one scalar fold (pennant 320x720 ×4,
	// BenchmarkInstanceRepeats), so every repeat count folds in blocks.
	avx2Lanes = laneFold{foldLanesAVX2, 1}
	// hostLanes is the lane fold RunRepeats uses: the kernel where the
	// CPU has AVX2, the Go fold everywhere else.
	hostLanes = func() laneFold {
		if haveAVX2 {
			return avx2Lanes
		}
		return portableLanes
	}()
)

// lanes holds one timeline value per repeat of a lane block.
type lanes [laneWidth]float64

// laneTapeKey identifies the noise block of one lane block's seeds.
type laneTapeKey struct {
	seeds [laneWidth]uint64
	sigma float64
}

// resetZero returns s resized to n with every element zeroed.
func resetZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// foldSchedule replays a recorded schedule under cfg and returns its
// Summary: the max/add replay of every copy and execution in record order,
// execution ex's duration multiplied by noise[ex] (nil without noise).
// With a non-nil res it also fills res with the whole Result: the Summary
// fields, the per-task, per-kind and per-memory maps, and the Trace and
// Explain logs when cfg asks for them. With a nil res it builds no map and
// no log.
func foldSchedule(topo *topology, plan *PlacementPlan, sch *schedule, cfg Config, noise []float64, fs *foldScratch, res *Result) Summary {
	g := topo.g
	perIter := len(topo.launch)
	fs.procAvail = resetZero(fs.procAvail, topo.nodes*machine.NumProcKinds)
	fs.copyAvail = resetZero(fs.copyAvail, topo.nodes)
	fs.finish = resetZero(fs.finish, perIter+1)
	fs.taskWall = resetZero(fs.taskWall, len(g.Tasks))
	clear(fs.busy[:])
	clear(fs.seen[:])

	trace := res != nil && cfg.Trace
	explain := res != nil && cfg.Explain
	// Preallocate the logs only when non-empty so empty logs stay nil.
	if trace && sch.numExecs > 0 {
		res.Events = make([]Event, 0, sch.numExecs)
	}
	if explain && sch.numCopies > 0 {
		res.Copies = make([]CopyEvent, 0, sch.numCopies)
	}

	var netAvail, energy, makespan float64
	// pos and iter are launch li's position and iteration, row its
	// predecessor list, slot its place in the finish ring.
	pos, iter, row, slot := 0, 0, 0, 0
	first, opIdx, exIdx := 0, 0, 0
	for rep := 0; rep <= sch.reps; rep++ {
		for li := first; li < len(sch.launches); li++ {
			tid := topo.launch[pos]
			ready := 0.0
			for _, d := range topo.preds[topo.predOff[row]:topo.predOff[row+1]] {
				k := slot - int(d)
				if k < 0 {
					k += perIter + 1
				}
				if fs.finish[k] > ready {
					ready = fs.finish[k]
				}
			}
			taskFinish := ready
			var execWall float64
			exEnd := int(sch.launches[li].execEnd)
			for ; exIdx < exEnd; exIdx++ {
				x := &sch.execs[exIdx]
				t := ready
				copyDone := ready
				for ; opIdx < int(x.opEnd); opIdx++ {
					o := &sch.ops[opIdx]
					if o.chainFirst {
						copyDone = fmax(copyDone, t)
						t = ready
					}
					var start, done float64
					if o.network {
						start = fmax(t, netAvail)
						done = start + o.durA + o.durB
						netAvail = done
					} else {
						start = fmax(t, fs.copyAvail[o.srcNode])
						done = start + o.durA + o.durB
						fs.copyAvail[o.srcNode] = done
					}
					if explain {
						res.Copies = append(res.Copies, CopyEvent{
							SrcNode: int(o.srcNode), DstNode: int(o.dstNode),
							SrcKind: o.srcKind, DstKind: o.dstKind, Network: o.network,
							Bytes: o.bytes, StartSec: start, DoneSec: done,
						})
					}
					t = done
				}
				copyDone = fmax(copyDone, t)
				dur := x.durBase
				if noise != nil {
					// noise[exIdx] is this exec's draw of the config's
					// stream: one draw per exec, in run order.
					dur *= noise[exIdx]
				}
				pa := &fs.procAvail[int(x.node)*machine.NumProcKinds+int(x.kind)]
				start := fmax(copyDone, *pa)
				fin := start + dur
				*pa = fin
				a := x.activeF * dur
				fs.busy[x.kind] += a
				fs.seen[x.kind] = true
				energy += a * x.powerW
				if trace {
					res.Events = append(res.Events, Event{
						Task: tid, Node: int(x.node), Kind: x.kind, Iteration: iter,
						StartSec: start, CopySec: copyDone - ready, DurSec: dur,
					})
				}
				if fin > taskFinish {
					taskFinish = fin
				}
				if dur > execWall {
					execWall = dur
				}
			}
			opIdx = int(sch.launches[li].opEnd)

			fs.finish[slot] = taskFinish
			fs.taskWall[tid] += execWall
			if taskFinish > makespan {
				makespan = taskFinish
			}
			pos, row, slot = pos+1, row+1, slot+1
			if pos == perIter {
				pos, iter, row = 0, iter+1, perIter
			}
			if slot > perIter {
				slot = 0
			}
		}
		first, opIdx, exIdx, noise = rewind(sch, noise)
	}
	sum := sch.summary(topo, plan, makespan, energy)
	if res == nil {
		return sum
	}
	res.MakespanSec = sum.MakespanSec
	res.EnergyJoules = sum.EnergyJoules
	res.BytesCopied = sum.BytesCopied
	res.BytesOnNetwork = sum.BytesOnNetwork
	res.NumCopies = sum.NumCopies
	res.Spills = sum.Spills
	res.PeakMemBytes = plan.PeakMemBytes()
	// TaskWallSec has an entry for every task that launches (even an
	// all-zero one); every task in the launch order launches once per
	// iteration, so the entry set is exactly the launch-order task set.
	res.TaskWallSec = make(map[taskir.TaskID]float64, len(g.Tasks))
	for _, tid := range topo.launch {
		res.TaskWallSec[tid] = fs.taskWall[tid]
	}
	res.ProcBusySec = make(map[machine.ProcKind]float64)
	for k := range fs.busy {
		if fs.seen[k] {
			res.ProcBusySec[machine.ProcKind(k)] = fs.busy[k]
		}
	}
	return sum
}

// foldLanes is foldSchedule for up to laneWidth repeats at once, into
// Summaries: one pass over the schedule's ops, execs and launches drives
// one timeline per lane, lane l multiplying execution ex's duration by
// noise[ex][l] (noise is nil without noise). Every lane performs exactly
// foldSchedule's float operations for the Summary in the same order, so
// out[l] is bit-identical to foldSchedule's Summary under lane l's tape.
// Lanes past len(out) are padding: their results are discarded. Nothing
// but the Summary is produced; RunKeyed serves Results. foldLanesAVX2
// folds the same lanes with the same operations in assembly.
func foldLanes(topo *topology, plan *PlacementPlan, sch *schedule, noise []lanes, out []Summary, fs *foldScratch) {
	perIter := len(topo.launch)
	fs.laneProc = resetZero(fs.laneProc, topo.nodes*machine.NumProcKinds)
	fs.laneCopy = resetZero(fs.laneCopy, topo.nodes)
	fs.laneFinish = resetZero(fs.laneFinish, perIter+1)
	noisy := noise != nil

	var netAvail, energy, makespan, t, copyDone lanes
	pos, row, slot := 0, 0, 0 // as in foldSchedule
	first, opIdx, exIdx := 0, 0, 0
	for rep := 0; rep <= sch.reps; rep++ {
		for li := first; li < len(sch.launches); li++ {
			var ready lanes
			for _, d := range topo.preds[topo.predOff[row]:topo.predOff[row+1]] {
				k := slot - int(d)
				if k < 0 {
					k += perIter + 1
				}
				f := &fs.laneFinish[k]
				for l := range ready {
					if f[l] > ready[l] {
						ready[l] = f[l]
					}
				}
			}
			taskFinish := ready
			exEnd := int(sch.launches[li].execEnd)
			for ; exIdx < exEnd; exIdx++ {
				x := &sch.execs[exIdx]
				// Without copies foldSchedule's copyDone is fmax(ready,
				// ready), which is ready bit for bit.
				cd := &ready
				if opIdx < int(x.opEnd) {
					t, copyDone = ready, ready
					for ; opIdx < int(x.opEnd); opIdx++ {
						o := &sch.ops[opIdx]
						if o.chainFirst {
							for l := range t {
								copyDone[l] = fmax(copyDone[l], t[l])
								t[l] = ready[l]
							}
						}
						avail := &netAvail
						if !o.network {
							avail = &fs.laneCopy[o.srcNode]
						}
						for l := range t {
							done := fmax(t[l], avail[l]) + o.durA + o.durB
							avail[l] = done
							t[l] = done
						}
					}
					for l := range t {
						copyDone[l] = fmax(copyDone[l], t[l])
					}
					cd = &copyDone
				}
				var nz *lanes
				if noisy {
					nz = &noise[exIdx]
				}
				pa := &fs.laneProc[int(x.node)*machine.NumProcKinds+int(x.kind)]
				for l := range pa {
					dur := x.durBase
					if noisy {
						dur *= nz[l]
					}
					fin := fmax(cd[l], pa[l]) + dur
					pa[l] = fin
					a := x.activeF * dur
					energy[l] += a * x.powerW
					if fin > taskFinish[l] {
						taskFinish[l] = fin
					}
				}
			}
			opIdx = int(sch.launches[li].opEnd)

			fs.laneFinish[slot] = taskFinish
			for l := range makespan {
				if taskFinish[l] > makespan[l] {
					makespan[l] = taskFinish[l]
				}
			}
			pos, row, slot = pos+1, row+1, slot+1
			if pos == perIter {
				pos, row = 0, perIter
			}
			if slot > perIter {
				slot = 0
			}
		}
		first, opIdx, exIdx, noise = rewind(sch, noise)
	}
	for l := range out {
		out[l] = sch.summary(topo, plan, makespan[l], energy[l])
	}
}
