// Package sim is a deterministic discrete-event simulator of a Legion-like
// task-based runtime executing a program under a given mapping on a modeled
// machine. It substitutes for the paper's real clusters (see DESIGN.md):
// the search algorithms only ever observe end-to-end execution times, so a
// simulator that reproduces the cost structure of the real system — GPU vs
// CPU throughput and launch overhead, per-memory access bandwidths,
// inter-memory copy channels, memory capacities with OOM failure, and
// socket-/device-local instance duplication — exercises the same search
// behavior.
//
// The execution model follows how Legion runs the benchmark applications:
//
//   - Group tasks (index launches) either run entirely on the leader node
//     or are distributed blocked across all nodes; within a node, points
//     are executed in waves over the processors of the mapped kind.
//   - Each collection argument is instantiated in the first memory kind of
//     its priority list with available capacity ("a priority list of
//     memories ... where the first memory that can hold c will be used",
//     Section 3.1). Exhausting the list is an out-of-memory failure.
//   - Data movement is implicit: when a consumer needs a collection in a
//     different memory (or node) than where the last writer left it, a
//     copy is issued over the connecting channels before the consumer may
//     start (Section 2).
//   - Shared (non-partitioned) collections placed in socket- or
//     device-local memories (System, Frame-Buffer) are duplicated per
//     socket/GPU that accesses them, costing capacity and per-version
//     mirror copies; Zero-Copy is a single node-wide allocation
//     (Section 5's Stencil discussion).
//
// Run-to-run variation is modeled with seeded unit-mean log-normal noise on
// task durations, which is what makes the paper's repeated-measurement
// protocol (7 runs per candidate, 31 for final reporting) meaningful.
//
// Entry points: Simulate is the one-shot API; Instance (instance.go) is the
// search-facing API that amortizes topology tables, placement plans, and
// simulation scratch across the thousands of runs of one search.
package sim

import (
	"fmt"
	"math"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

// Config controls a simulation run.
type Config struct {
	// NoiseSigma is the log-normal sigma of per-task-launch duration
	// noise; 0 disables noise and makes runs bit-identical.
	NoiseSigma float64
	// Seed seeds the noise generator.
	Seed uint64
	// Trace records a per-launch execution event log in Result.Events
	// (one event per task × node × iteration), for timeline rendering
	// and debugging. Off by default: event logs are large.
	Trace bool
	// Explain additionally records every copy operation in Result.Copies
	// so a post-run critical-path analysis (internal/explain) can
	// attribute the makespan to tasks, copies, and channels. Off by
	// default: copy logs are large.
	Explain bool
}

// Event is one recorded task execution on one node (Config.Trace).
type Event struct {
	Task      taskir.TaskID
	Node      int
	Kind      machine.ProcKind
	Iteration int
	// StartSec is when execution began (after dependences and copies);
	// CopySec is the copy time that preceded it; DurSec the execution
	// duration.
	StartSec float64
	CopySec  float64
	DurSec   float64
}

// CopyEvent is one recorded copy operation (Config.Explain): an
// intra-node channel transfer (SrcNode == DstNode, Network false) or the
// network leg of a cross-node copy (Network true; the staging copies
// through System memory on either end appear as their own intra-node
// events). Start and Done bracket the transfer on the simulated clock;
// because every schedule time in the simulator is a max over recorded
// completion times, these floats chain exactly and the critical path can
// be recovered by equality matching.
type CopyEvent struct {
	SrcNode int
	DstNode int
	SrcKind machine.MemKind
	DstKind machine.MemKind
	Network bool
	Bytes   int64
	// StartSec is when the transfer began; DoneSec when it completed.
	StartSec float64
	DoneSec  float64
}

// Result reports the outcome of a simulation.
type Result struct {
	// MakespanSec is the end-to-end execution time in seconds.
	MakespanSec float64
	// TaskWallSec is the total execution time (across iterations,
	// excluding copies) attributed to each group task; the search uses
	// it to order tasks by runtime.
	TaskWallSec map[taskir.TaskID]float64
	// BytesCopied is the total bytes moved between memories.
	BytesCopied int64
	// BytesOnNetwork is the subset of BytesCopied that crossed nodes.
	BytesOnNetwork int64
	// NumCopies counts individual copy operations.
	NumCopies int
	// Spills counts collection instances that fell back to a non-primary
	// memory kind because the primary was full.
	Spills int
	// PeakMemBytes records the final resident bytes per memory kind.
	PeakMemBytes map[machine.MemKind]int64
	// Events is the execution event log (only with Config.Trace).
	Events []Event
	// Copies is the copy-operation log (only with Config.Explain).
	Copies []CopyEvent
	// ProcBusySec is the total processor-occupied time per kind.
	ProcBusySec map[machine.ProcKind]float64
	// EnergyJoules estimates dynamic energy: processor busy time times
	// active power, plus a per-byte cost for data movement. It is the
	// alternative objective of Section 3.3 ("AutoMap is suitable for
	// minimizing other metrics (e.g., power consumption)").
	EnergyJoules float64
}

// OOMError reports that a collection argument could not be placed in any
// memory kind of its priority list.
type OOMError struct {
	Task       string
	Collection string
	Node       int
	Tried      []machine.MemKind
}

// Error implements the error interface.
func (e *OOMError) Error() string {
	return fmt.Sprintf("out of memory: task %q collection %q on node %d (tried %v)",
		e.Task, e.Collection, e.Node, e.Tried)
}

// Simulate executes program g under mapping mp on machine m and returns the
// execution result, or an *OOMError if the mapping does not fit. The
// mapping must already be valid for (g, m.Model()).
//
// Simulate rebuilds the topology tables and placement plan on every call;
// callers running many mappings on one (machine, program) pair should use
// New + Instance.Run, which produces identical results.
func Simulate(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping, cfg Config) (*Result, error) {
	plan, err := PlanPlacement(m, g, mp)
	if err != nil {
		return nil, err
	}
	var s state
	s.init(plan, cfg)
	s.run()
	return s.result, nil
}

// sharedLoc is one valid location of a shared collection.
type sharedLoc struct {
	node int
	kind machine.MemKind
}

// partialInfo records that a shared collection was last written piecewise
// by a distributed task.
type partialInfo struct {
	active bool
	frac   float64 // fraction of the collection each reader must gather
	src    int     // a writer node other readers can gather from
}

// state carries all mutable simulation state. It embeds the committed
// placement plan (see place.go), which provides the machine/program/mapping
// triple and the per-argument instance placements. A state is reusable:
// init rebinds it to a new plan and config, recycling all scratch storage
// (Instance keeps a pool of them).
type state struct {
	*PlacementPlan
	cfg Config
	rng xrand.RNG

	// Validity state for coherence. sharedValid holds, per shared
	// collection, the set of currently valid locations as a small slice
	// (bounded by nodes × memory kinds); membership scans are linear but
	// the sets are tiny, and slices recycle across runs where the maps
	// they replaced were reallocated per run.
	sharedValid [][]sharedLoc // per shared collection
	shardValid  [][]sharedLoc // per partitioned collection, per shard(node): holder; node<0 = untouched
	// partial[alias] is set after a distributed write of a shared
	// collection: every node wrote only its part, so a reader must
	// gather the remaining fraction from the other writers (the ghost /
	// halo exchange of the real applications).
	partial []partialInfo

	// Timelines (absolute seconds).
	procAvail  [][]float64 // [node][procKind]
	copyAvail  []float64   // per-node copy engine
	netAvail   float64     // network serialization point
	writeDone  []float64   // per collection: finish of last writer
	accessDone []float64   // per collection: finish of last accessor

	taskFinish []float64
	iteration  int

	// rec, when non-nil, records the run's schedule (schedule.go) as a
	// byproduct; it never changes any computed value.
	rec *recorder
	// scratch is the recycled schedule buffer that Instance recordings
	// and delta patches write into; rec points at it while they run.
	scratch recorder

	// writerScratch[a] is the per-launch writer-location scratch, sized
	// to the widest task so runTask never allocates it.
	writerScratch [][]sharedLoc

	result *Result
}

// init binds s to a plan and config, allocating scratch on first use and
// recycling it afterwards. A pooled state may be rebound to a different
// plan of the same (machine, program) pair: every dimension below is a
// function of (machine, program) only.
func (s *state) init(plan *PlacementPlan, cfg Config) {
	g := plan.g
	nc := len(g.Collections)
	s.PlacementPlan = plan
	s.cfg = cfg
	s.rng = *xrand.New(cfg.Seed ^ 0x5bd1e995)
	s.netAvail = 0
	s.iteration = 0
	s.rec = nil
	s.result = &Result{
		TaskWallSec:  make(map[taskir.TaskID]float64, len(g.Tasks)),
		PeakMemBytes: plan.PeakMemBytes(),
		ProcBusySec:  make(map[machine.ProcKind]float64),
		Spills:       plan.Spills,
	}

	if s.sharedValid == nil {
		s.sharedValid = make([][]sharedLoc, nc)
		s.shardValid = make([][]sharedLoc, nc)
		s.partial = make([]partialInfo, nc)
		s.procAvail = make([][]float64, plan.nodes)
		procBack := make([]float64, plan.nodes*machine.NumProcKinds)
		for n := range s.procAvail {
			s.procAvail[n] = procBack[n*machine.NumProcKinds : (n+1)*machine.NumProcKinds]
		}
		s.copyAvail = make([]float64, plan.nodes)
		s.writeDone = make([]float64, nc)
		s.accessDone = make([]float64, nc)
		s.taskFinish = make([]float64, len(g.Tasks))
		s.writerScratch = make([][]sharedLoc, plan.topo.maxArgs)
	} else {
		for c := 0; c < nc; c++ {
			s.sharedValid[c] = s.sharedValid[c][:0]
		}
		for i := range s.partial {
			s.partial[i] = partialInfo{}
		}
		for n := range s.procAvail {
			for k := range s.procAvail[n] {
				s.procAvail[n][k] = 0
			}
		}
		for i := range s.copyAvail {
			s.copyAvail[i] = 0
		}
		for i := range s.writeDone {
			s.writeDone[i] = 0
		}
		for i := range s.accessDone {
			s.accessDone[i] = 0
		}
		for i := range s.taskFinish {
			s.taskFinish[i] = 0
		}
	}
	for c := 0; c < nc; c++ {
		if cap(s.shardValid[c]) < plan.nodes {
			s.shardValid[c] = make([]sharedLoc, plan.nodes)
		} else {
			s.shardValid[c] = s.shardValid[c][:plan.nodes]
		}
		for n := range s.shardValid[c] {
			s.shardValid[c][n] = sharedLoc{node: -1}
		}
	}
}

// fmax is max over the simulator's times. All operands are finite and
// non-negative, so it is equivalent to math.Max — but unlike math.Max it
// inlines, and it sits on the innermost scheduling loops. The live path
// and the timing fold (schedule.go) both use it, so the two replays share
// identical float semantics.
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// chanBW returns the copy bandwidth and latency between memory kinds a and
// b on node n from the topology's precomputed channel table.
func (s *state) chanBW(a, b machine.MemKind, n int) (float64, float64) {
	c := s.topo.chans[n][a][b]
	return c.bw, c.lat
}

// intraCopy schedules a copy of `bytes` between kinds on node n, starting
// no earlier than `after`, and returns the completion time.
func (s *state) intraCopy(a, b machine.MemKind, n int, bytes int64, after float64) float64 {
	bw, lat := s.chanBW(a, b, n)
	var dur float64
	if bw <= 0 {
		// Should not happen on validated machines; charge a network-like cost.
		dur = float64(bytes) / 1e9
	} else if math.IsInf(bw, 1) {
		dur = 0
	} else {
		dur = lat + float64(bytes)/bw
	}
	start := fmax(after, s.copyAvail[n])
	done := start + dur
	s.copyAvail[n] = done
	if s.rec != nil {
		s.rec.op(dur, 0, bytes, n, n, a, b, false)
	}
	s.result.BytesCopied += bytes
	s.result.NumCopies++
	if s.cfg.Explain {
		s.result.Copies = append(s.result.Copies, CopyEvent{
			SrcNode: n, DstNode: n, SrcKind: a, DstKind: b,
			Bytes: bytes, StartSec: start, DoneSec: done,
		})
	}
	return done
}

// netCopy schedules a cross-node copy of `bytes` from (srcNode, srcKind) to
// (dstNode, dstKind), staging through System memory on both ends, and
// returns the completion time.
func (s *state) netCopy(srcNode int, srcKind machine.MemKind, dstNode int, dstKind machine.MemKind, bytes int64, after float64) float64 {
	t := after
	if srcKind != machine.SysMem {
		t = s.intraCopy(srcKind, machine.SysMem, srcNode, bytes, t)
	}
	bw := s.m.NetworkBandwidthBps
	if bw <= 0 {
		bw = 1e9
	}
	durA := s.m.NetworkLatencySec
	durB := float64(bytes) / bw
	start := fmax(t, s.netAvail)
	done := start + durA + durB
	s.netAvail = done
	if s.rec != nil {
		s.rec.op(durA, durB, bytes, srcNode, dstNode, machine.SysMem, machine.SysMem, true)
	}
	s.result.BytesCopied += bytes
	s.result.BytesOnNetwork += bytes
	s.result.NumCopies++
	if s.cfg.Explain {
		s.result.Copies = append(s.result.Copies, CopyEvent{
			SrcNode: srcNode, DstNode: dstNode,
			SrcKind: machine.SysMem, DstKind: machine.SysMem, Network: true,
			Bytes: bytes, StartSec: start, DoneSec: done,
		})
	}
	t = done
	if dstKind != machine.SysMem {
		t = s.intraCopy(machine.SysMem, dstKind, dstNode, bytes, t)
	}
	return t
}

// recChain marks the next recorded copy op as the first of an ensure*
// chain: chains gate internally on each other's completion but all start
// from the launch's ready time.
func (s *state) recChain() {
	if s.rec != nil {
		s.rec.newChain = true
	}
}

// containsLoc reports whether locs contains want.
func containsLoc(locs []sharedLoc, want sharedLoc) bool {
	for _, l := range locs {
		if l == want {
			return true
		}
	}
	return false
}

// ensureShared makes collection c valid at (node, kind) and returns the
// completion time of any copies needed (>= after).
func (s *state) ensureShared(c *taskir.Collection, node int, kind machine.MemKind, units int, after float64) float64 {
	al := s.topo.alias[c.ID]
	valid := s.sharedValid[al]
	want := sharedLoc{node: node, kind: kind}
	done := after
	if !containsLoc(valid, want) {
		if pi := s.partial[al]; pi.active {
			// Gather the parts written by the other nodes (ghost
			// exchange).
			bytes := int64(pi.frac * float64(c.SizeBytes()))
			src := pi.src
			if src == node {
				src = (node + 1) % s.nodes
			}
			done = s.netCopy(src, kind, node, kind, bytes, after)
		} else if len(valid) > 0 {
			// Prefer an intra-node source; break remaining ties by
			// (node, kind) so the choice is deterministic (the same
			// rule the map-based representation applied).
			src := valid[0]
			for _, loc := range valid[1:] {
				ai, bi := loc.node == node, src.node == node
				switch {
				case ai != bi:
					if ai {
						src = loc
					}
				case loc.node != src.node:
					if loc.node < src.node {
						src = loc
					}
				case loc.kind < src.kind:
					src = loc
				}
			}
			if src.node == node {
				done = s.intraCopy(src.kind, kind, node, c.SizeBytes(), after)
			} else {
				done = s.netCopy(src.node, src.kind, node, kind, c.SizeBytes(), after)
			}
		}
		// else: first touch — the collection is materialized in place.
		s.sharedValid[al] = append(valid, want)
	}
	// Mirror copies for the extra sockets/devices spanned.
	for u := 1; u < units; u++ {
		done = s.intraCopy(kind, kind, node, c.SizeBytes(), done)
	}
	return done
}

// ensureShard makes shard `shard` of partitioned collection c valid at
// (node, kind) and returns the copy completion time.
func (s *state) ensureShard(c *taskir.Collection, shard, node int, kind machine.MemKind, bytes int64, after float64) float64 {
	al := s.topo.alias[c.ID]
	cur := s.shardValid[al][shard]
	want := sharedLoc{node: node, kind: kind}
	if cur.node < 0 {
		s.shardValid[al][shard] = want
		return after
	}
	if cur == want {
		return after
	}
	var done float64
	if cur.node == node {
		done = s.intraCopy(cur.kind, kind, node, bytes, after)
	} else {
		done = s.netCopy(cur.node, cur.kind, node, kind, bytes, after)
	}
	s.shardValid[al][shard] = want
	return done
}

// invalidateSharedExcept resets the valid set of shared collection c to the
// writer's locations.
func (s *state) invalidateSharedExcept(c taskir.CollectionID, locs []sharedLoc) {
	s.sharedValid[c] = append(s.sharedValid[c][:0], locs...)
}

// run executes the timing pass over all iterations.
func (s *state) run() {
	order := s.topo.launch
	var makespan float64
	for iter := 0; iter < s.g.Iterations; iter++ {
		s.iteration = iter
		for _, tid := range order {
			if s.rec != nil {
				s.rec.beginLaunch(s, tid)
			}
			finish := s.runTask(tid)
			if s.rec != nil {
				s.rec.endLaunch()
			}
			if finish > makespan {
				makespan = finish
			}
		}
	}
	// The runtime's serial per-iteration overhead (dependence analysis,
	// scheduling) is mapping-independent and additive.
	makespan += float64(s.g.Iterations) * s.g.SerialOverheadSec
	s.result.MakespanSec = makespan
	s.result.EnergyJoules += float64(s.result.BytesCopied) * s.m.CopyEnergyPerByte
}

// runTask executes one launch of group task tid and returns its finish time.
func (s *state) runTask(tid taskir.TaskID) float64 {
	t := s.g.Task(tid)
	d := s.mp.Decision(tid)

	// Readiness from data flow (true and anti dependences), including
	// wrap-around dependences across iterations.
	ready := 0.0
	for _, arg := range t.Args {
		al := s.topo.alias[arg.Collection]
		if arg.Privilege.Reads() && s.writeDone[al] > ready {
			ready = s.writeDone[al]
		}
		if arg.Privilege.Writes() && s.accessDone[al] > ready {
			ready = s.accessDone[al]
		}
	}

	nodes := s.taskNodes[tid]
	proc := s.procFor(d.Proc)
	variant := t.Variants[d.Proc]

	taskFinish := ready
	var execWall float64
	// writerLocs[a] collects, per written argument, the locations the
	// write lands in; they become the sole valid locations afterwards.
	writerLocs := s.writerScratch[:len(t.Args)]
	for i := range writerLocs {
		writerLocs[i] = writerLocs[i][:0]
	}

	for _, n := range nodes {
		pts := s.pointsOnNode(t, n)
		if pts == 0 {
			continue
		}
		// Coherence copies for this node's arguments.
		copyDone := ready
		for a, arg := range t.Args {
			if !s.placed[tid][a][n] {
				continue
			}
			pl := s.placement[tid][a][n]
			c := s.g.Collection(arg.Collection)
			if arg.Privilege.Reads() {
				if c.Partitioned {
					sb := ShardBytes(c, pts, t.Points)
					if d.Distribute {
						s.recChain()
						copyDone = fmax(copyDone, s.ensureShard(c, n, n, pl.kind, sb, ready))
					} else {
						// Leader gathers every shard.
						for sh := 0; sh < s.nodes; sh++ {
							shb := c.SizeBytes() / int64(s.nodes)
							s.recChain()
							copyDone = fmax(copyDone, s.ensureShard(c, sh, 0, pl.kind, shb, ready))
						}
					}
				} else {
					s.recChain()
					copyDone = fmax(copyDone, s.ensureShared(c, n, pl.kind, pl.units, ready))
				}
			}
			if arg.Privilege.Writes() {
				writerLocs[a] = append(writerLocs[a], sharedLoc{node: n, kind: pl.kind})
			}
		}

		// Execution on this node.
		procs := s.procsOnNode(d.Proc, n)
		if procs == 0 {
			procs = 1
		}
		waves := (pts + procs - 1) / procs
		active := pts
		if active > procs {
			active = procs
		}
		traffic := variant.TrafficFactor
		if traffic <= 0 {
			traffic = 1
		}
		// Last-level-cache tier: a socket streams at cache bandwidth
		// when its share of the task's whole working set fits in L3.
		cached := false
		if d.Proc == machine.CPU && s.m.CacheBytesPerSocket > 0 {
			var resident int64
			for a, arg := range t.Args {
				if !s.placed[tid][a][n] {
					continue
				}
				c := s.g.Collection(arg.Collection)
				share := ShardBytes(c, pts, t.Points)
				if c.Partitioned && s.placement[tid][a][n].units > 1 {
					share /= int64(s.placement[tid][a][n].units)
				}
				resident += share
			}
			cached = resident <= s.m.CacheBytesPerSocket
		}
		perPoint := proc.LaunchOverhead + variant.WorkPerPoint/(proc.ThroughputFLOPS*variant.Efficiency)
		for a, arg := range t.Args {
			if !s.placed[tid][a][n] || arg.BytesPerPoint == 0 {
				continue
			}
			pl := s.placement[tid][a][n]
			bw := s.m.Access.Bandwidth(d.Proc, pl.kind, false)
			if cached && (pl.kind == machine.SysMem || pl.kind == machine.ZeroCopy) &&
				s.m.Access.CPUCache > bw {
				bw = s.m.Access.CPUCache
			} else if pl.kind == machine.ZeroCopy && active > 1 {
				// The Zero-Copy pool is one allocation shared by
				// all concurrently accessing processors.
				bw /= float64(active)
			}
			if bw > 0 {
				perPoint += traffic * float64(arg.BytesPerPoint) / bw
			}
		}
		dur := float64(waves) * perPoint
		if s.rec != nil {
			s.rec.exec(dur, float64(active), proc.PowerW, n, d.Proc)
		}
		if s.cfg.NoiseSigma > 0 {
			dur *= s.rng.UnitMeanLogNormal(s.cfg.NoiseSigma)
		}
		start := fmax(copyDone, s.procAvail[n][d.Proc])
		fin := start + dur
		s.procAvail[n][d.Proc] = fin
		// Energy: `active` processors of this kind are busy for dur.
		s.result.ProcBusySec[d.Proc] += float64(active) * dur
		s.result.EnergyJoules += float64(active) * dur * proc.PowerW
		if s.cfg.Trace {
			s.result.Events = append(s.result.Events, Event{
				Task: tid, Node: n, Kind: d.Proc, Iteration: s.iteration,
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

	// Commit write effects.
	for a, arg := range t.Args {
		al := s.topo.alias[arg.Collection]
		if !arg.Privilege.Writes() {
			if arg.Privilege.Reads() && taskFinish > s.accessDone[al] {
				s.accessDone[al] = taskFinish
			}
			continue
		}
		c := s.g.Collection(arg.Collection)
		if c.Partitioned {
			if d.Distribute {
				for _, n := range nodes {
					if s.placed[tid][a][n] {
						s.shardValid[al][n] = sharedLoc{node: n, kind: s.placement[tid][a][n].kind}
					}
				}
			} else if s.placed[tid][a][0] {
				for sh := 0; sh < s.nodes; sh++ {
					s.shardValid[al][sh] = sharedLoc{node: 0, kind: s.placement[tid][a][0].kind}
				}
			}
		} else {
			s.invalidateSharedExcept(al, writerLocs[a])
			if len(writerLocs[a]) > 1 {
				// Distributed write of a shared collection:
				// each node produced only its part.
				w := len(writerLocs[a])
				s.sharedValid[al] = s.sharedValid[al][:0]
				s.partial[al] = partialInfo{
					active: true,
					frac:   float64(w-1) / float64(w),
					src:    writerLocs[a][0].node,
				}
			} else {
				s.partial[al] = partialInfo{}
			}
		}
		if taskFinish > s.writeDone[al] {
			s.writeDone[al] = taskFinish
		}
		if taskFinish > s.accessDone[al] {
			s.accessDone[al] = taskFinish
		}
	}

	s.taskFinish[tid] = taskFinish
	s.result.TaskWallSec[tid] += execWall
	return taskFinish
}

// procFor returns a representative processor of kind k for calibration
// constants (throughput, overhead); all processors of a kind are identical
// in the modeled clusters.
func (s *state) procFor(k machine.ProcKind) *machine.Processor {
	if p := s.topo.procRep[k]; p != nil {
		return p
	}
	// Validated mappings never reach here.
	return &s.m.Procs[0]
}
