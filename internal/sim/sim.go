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
// A run has two passes (schedule.go): a structure pass (state, below)
// decides which copies and executions occur and records them with their
// noise-free durations, and the timing fold replays the record under a
// config's noise to produce the Result. The structure pass has no clock:
// it never sees a time or a Config.
//
// Entry points: Instance (instance.go) is the search-facing API that
// amortizes topology tables, placement plans, recorded schedules and
// scratch across the thousands of runs of one search; Simulate is the
// one-shot form, which records and folds once and keeps nothing.
package sim

import (
	"fmt"
	"math"
	"slices"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
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
// because every time the timing fold computes is a max over earlier
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

// Summary is the flat outcome of one measured run: the scalars of a
// Result that the search's measurement protocol reads, without its
// per-task and per-kind maps or its logs. The repeats of a candidate are
// measured into Summaries (Instance.RunRepeats); a Result comes from
// Simulate or Instance.RunKeyed. Each field means what the Result field of
// the same name means.
type Summary struct {
	MakespanSec    float64
	EnergyJoules   float64
	BytesCopied    int64
	BytesOnNetwork int64
	NumCopies      int
	Spills         int
}

// Summarize returns the Summary fields of r.
func (r *Result) Summarize() Summary {
	return Summary{
		MakespanSec:    r.MakespanSec,
		EnergyJoules:   r.EnergyJoules,
		BytesCopied:    r.BytesCopied,
		BytesOnNetwork: r.BytesOnNetwork,
		NumCopies:      r.NumCopies,
		Spills:         r.Spills,
	}
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
// Simulate returns what New(m, g).RunKeyed(mp.Key(), mp, cfg) returns,
// without an Instance or any cache: it builds the topology tables, plans placement,
// records the schedule into a fresh state's scratch and folds it there
// under the config's noise stream. Callers running many mappings on one
// (machine, program) pair should keep an Instance.
func Simulate(m *machine.Machine, g *taskir.Graph, mp *mapping.Mapping, cfg Config) (*Result, error) {
	topo := newTopology(m, g)
	plan, err := planPlacement(topo, mp)
	if err != nil {
		return nil, err
	}
	sch := new(state).record(plan)
	var noise []float64
	if cfg.NoiseSigma > 0 {
		noise = drawNoise(cfg.Seed, cfg.NoiseSigma, sch.numExecs)
	}
	res := new(Result)
	foldSchedule(topo, plan, sch, cfg, noise, new(foldScratch), res)
	return res, nil
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

// state is the structure pass: it walks every launch of every iteration,
// keeps the coherence (validity-set) state that decides which copies a
// launch needs, and records the copies and executions into its scratch
// schedule. It embeds the committed placement plan (see place.go), which
// provides the machine/program/mapping triple and the per-argument
// instance placements. A state is reusable: init rebinds it to a new plan,
// recycling all scratch storage (every Instance keeps one).
type state struct {
	*PlacementPlan

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

	// scratch is the recycled schedule buffer the pass records into.
	scratch recorder

	// writerScratch[a] is the per-launch writer-location scratch, sized
	// to the widest task so runTask never allocates it.
	writerScratch [][]sharedLoc

	// prev and cur are record's snapshots of the coherence state at the
	// start of the previous and the current iteration.
	prev, cur coherence
}

// coherence is a flat snapshot of a state's coherence state at an
// iteration boundary: every alias's sharedValid locations followed by its
// shardValid holders, in alias order, with each sharedValid length (the
// shardValid lengths are fixed) and the partial markers.
type coherence struct {
	locs       []sharedLoc
	sharedLens []int32
	partial    []partialInfo
}

// take overwrites c with s's current coherence state, reusing c's buffers.
func (c *coherence) take(s *state) {
	c.locs, c.sharedLens = c.locs[:0], c.sharedLens[:0]
	for al := range s.sharedValid {
		c.locs = append(c.locs, s.sharedValid[al]...)
		c.locs = append(c.locs, s.shardValid[al]...)
		c.sharedLens = append(c.sharedLens, int32(len(s.sharedValid[al])))
	}
	c.partial = append(c.partial[:0], s.partial...)
}

// sameState reports whether c and o hold the same coherence state. The
// comparison is order-sensitive, so it is conservative: two equal valid
// sets listed in different orders compare unequal, which only costs the
// recording of one more iteration.
func (c *coherence) sameState(o *coherence) bool {
	return slices.Equal(c.locs, o.locs) && slices.Equal(c.sharedLens, o.sharedLens) &&
		slices.Equal(c.partial, o.partial)
}

// init binds s to a plan, allocating scratch on first use and recycling it
// afterwards. A state may be rebound to a different plan of the
// same (machine, program) pair: every dimension below is a function of
// (machine, program) only.
func (s *state) init(plan *PlacementPlan) {
	nc := len(plan.g.Collections)
	s.PlacementPlan = plan
	if s.sharedValid == nil {
		s.sharedValid = make([][]sharedLoc, nc)
		s.shardValid = make([][]sharedLoc, nc)
		s.partial = make([]partialInfo, nc)
		s.writerScratch = make([][]sharedLoc, plan.topo.maxArgs)
	} else {
		for c := 0; c < nc; c++ {
			s.sharedValid[c] = s.sharedValid[c][:0]
		}
		clear(s.partial)
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
// inlines, and it sits on the timing fold's innermost loops
// (schedule.go).
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

// intraCopy records a copy of `bytes` between kinds on node n.
func (s *state) intraCopy(a, b machine.MemKind, n int, bytes int64) {
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
	s.scratch.op(dur, 0, bytes, n, n, a, b, false)
}

// netCopy records a cross-node copy of `bytes` from (srcNode, srcKind) to
// (dstNode, dstKind), staged through System memory on both ends.
func (s *state) netCopy(srcNode int, srcKind machine.MemKind, dstNode int, dstKind machine.MemKind, bytes int64) {
	if srcKind != machine.SysMem {
		s.intraCopy(srcKind, machine.SysMem, srcNode, bytes)
	}
	bw := s.m.NetworkBandwidthBps
	if bw <= 0 {
		bw = 1e9
	}
	s.scratch.op(s.m.NetworkLatencySec, float64(bytes)/bw, bytes, srcNode, dstNode, machine.SysMem, machine.SysMem, true)
	if dstKind != machine.SysMem {
		s.intraCopy(machine.SysMem, dstKind, dstNode, bytes)
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

// ensureShared makes collection c valid at (node, kind), recording the
// copies needed as one chain.
func (s *state) ensureShared(c *taskir.Collection, node int, kind machine.MemKind, units int) {
	s.scratch.newChain = true
	al := s.topo.alias[c.ID]
	valid := s.sharedValid[al]
	want := sharedLoc{node: node, kind: kind}
	if !containsLoc(valid, want) {
		if pi := s.partial[al]; pi.active {
			// Gather the parts written by the other nodes (ghost
			// exchange).
			bytes := int64(pi.frac * float64(c.SizeBytes()))
			src := pi.src
			if src == node {
				src = (node + 1) % s.nodes
			}
			s.netCopy(src, kind, node, kind, bytes)
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
				s.intraCopy(src.kind, kind, node, c.SizeBytes())
			} else {
				s.netCopy(src.node, src.kind, node, kind, c.SizeBytes())
			}
		}
		// else: first touch — the collection is materialized in place.
		s.sharedValid[al] = append(valid, want)
	}
	// Mirror copies for the extra sockets/devices spanned.
	for u := 1; u < units; u++ {
		s.intraCopy(kind, kind, node, c.SizeBytes())
	}
}

// ensureShard makes shard `shard` of partitioned collection c valid at
// (node, kind), recording the copy needed as one chain.
func (s *state) ensureShard(c *taskir.Collection, shard, node int, kind machine.MemKind, bytes int64) {
	s.scratch.newChain = true
	al := s.topo.alias[c.ID]
	cur := s.shardValid[al][shard]
	want := sharedLoc{node: node, kind: kind}
	if cur.node < 0 {
		s.shardValid[al][shard] = want
		return
	}
	if cur == want {
		return
	}
	if cur.node == node {
		s.intraCopy(cur.kind, kind, node, bytes)
	} else {
		s.netCopy(cur.node, cur.kind, node, kind, bytes)
	}
	s.shardValid[al][shard] = want
}

// invalidateSharedExcept resets the valid set of shared collection c to the
// writer's locations.
func (s *state) invalidateSharedExcept(c taskir.CollectionID, locs []sharedLoc) {
	s.sharedValid[c] = append(s.sharedValid[c][:0], locs...)
}

// record runs the structure pass of plan: it records the launches of the
// loop's iterations into s's scratch and returns the finalized schedule,
// which lives there until s records again. The pass takes no config, so
// one record serves every repeat's fold.
//
// A launch's records are a function of the plan and the coherence state
// alone. So when the coherence state at the start of an iteration equals
// its state at the start of the previous one, the previous iteration ended
// in the state it started from, and every later iteration records exactly
// what it did: record stops there and marks the previous iteration as the
// schedule's body, repeated once per remaining iteration. A mapping whose
// state never repeats records every iteration.
func (s *state) record(plan *PlacementPlan) *schedule {
	s.init(plan)
	s.scratch.reset()
	sch := &s.scratch.sch
	for iter := 0; iter < s.g.Iterations; iter++ {
		s.cur.take(s)
		if iter > 0 && s.cur.sameState(&s.prev) {
			sch.body = (iter - 1) * len(s.topo.launch)
			sch.reps = s.g.Iterations - iter
			break
		}
		s.prev, s.cur = s.cur, s.prev
		for _, tid := range s.topo.launch {
			s.runTask(tid)
			s.scratch.endLaunch()
		}
	}
	sch.finalize()
	return sch
}

// runTask records one launch of group task tid: the coherence copies each
// node needs, then the node's execution, and commits the launch's write
// effects to the coherence state.
func (s *state) runTask(tid taskir.TaskID) {
	t := s.g.Task(tid)
	d := s.mp.Decision(tid)
	nodes := s.taskNodes(tid)
	proc := s.procFor(d.Proc)
	variant := t.Variants[d.Proc]

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
		for a, arg := range t.Args {
			pl := s.at(tid, a, n)
			if pl.units == 0 {
				continue
			}
			c := s.g.Collection(arg.Collection)
			if arg.Privilege.Reads() {
				if c.Partitioned {
					sb := shardBytes(c, pts, t.Points)
					if d.Distribute {
						s.ensureShard(c, n, n, pl.kind, sb)
					} else {
						// Leader gathers every shard.
						for sh := 0; sh < s.nodes; sh++ {
							s.ensureShard(c, sh, 0, pl.kind, c.SizeBytes()/int64(s.nodes))
						}
					}
				} else {
					s.ensureShared(c, n, pl.kind, int(pl.units))
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
				pl := s.at(tid, a, n)
				if pl.units == 0 {
					continue
				}
				c := s.g.Collection(arg.Collection)
				share := shardBytes(c, pts, t.Points)
				if c.Partitioned && pl.units > 1 {
					share /= int64(pl.units)
				}
				resident += share
			}
			cached = resident <= s.m.CacheBytesPerSocket
		}
		perPoint := proc.LaunchOverhead + variant.WorkPerPoint/(proc.ThroughputFLOPS*variant.Efficiency)
		for a, arg := range t.Args {
			pl := s.at(tid, a, n)
			if pl.units == 0 || arg.BytesPerPoint == 0 {
				continue
			}
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
		// `active` processors of this kind are busy for the duration.
		s.scratch.exec(float64(waves)*perPoint, float64(active), proc.PowerW, n, d.Proc)
	}

	// Commit write effects.
	for a, arg := range t.Args {
		if !arg.Privilege.Writes() {
			continue
		}
		al := s.topo.alias[arg.Collection]
		c := s.g.Collection(arg.Collection)
		if c.Partitioned {
			if d.Distribute {
				for _, n := range nodes {
					if pl := s.at(tid, a, n); pl.units != 0 {
						s.shardValid[al][n] = sharedLoc{node: n, kind: pl.kind}
					}
				}
			} else if pl := s.at(tid, a, 0); pl.units != 0 {
				for sh := 0; sh < s.nodes; sh++ {
					s.shardValid[al][sh] = sharedLoc{node: 0, kind: pl.kind}
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
	}
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
