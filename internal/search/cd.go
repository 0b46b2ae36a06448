// Coordinate-wise descent and constrained coordinate-wise descent
// (Algorithm 1 of the paper).

package search

import (
	"fmt"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/taskir"
	"automap/internal/telemetry"
)

// CCD is the paper's constrained coordinate-wise descent search algorithm
// (Section 4.2). With Constrained == false and Rotations == 1 it degrades
// to plain coordinate-wise descent (Section 4.1): "CD is equivalent to the
// one rotation (the last one) of CCD".
type CCD struct {
	// Rotations is the number of full CD passes; the paper uses 5, with
	// 1/4 of the overlap-graph edges pruned after each rotation.
	Rotations int
	// Constrained enables the co-location constraints of Algorithm 2.
	Constrained bool
	// IgnoreProfiledOrder disables the paper's heuristic of visiting
	// tasks longest-running-first and arguments largest-first
	// (Section 4.1); tasks and arguments are then visited in program
	// order. Used by the ordering ablation benchmark.
	IgnoreProfiledOrder bool
}

// NewCCD returns the paper's CCD configuration (5 rotations, constrained).
func NewCCD() *CCD { return &CCD{Rotations: 5, Constrained: true} }

// NewCD returns plain coordinate-wise descent.
func NewCD() *CCD { return &CCD{Rotations: 1, Constrained: false} }

// Name identifies the algorithm ("AM-CCD" / "AM-CD" in the figures).
func (c *CCD) Name() string {
	if c.Constrained {
		return "AM-CCD"
	}
	return "AM-CD"
}

// Search runs Algorithm 1: initialize f to the starting point; for each
// rotation, optimize every task in decreasing profiled-runtime order
// (distribution bit, then processor kind, then memory kind per collection
// argument in decreasing size order), testing each candidate and keeping
// strict improvements; after each rotation prune the lightest
// original/(N−1) edges of the collection-overlap graph.
func (c *CCD) Search(p *Problem, ev Evaluator, budget Budget) *Outcome {
	rotations := c.Rotations
	if rotations < 1 {
		rotations = 1
	}
	tr := newTracker(p, ev)
	tr.source = c.Name()
	mRotations := p.Observer.Counter("search.rotations")
	mDropped := p.Observer.Counter("search.constraint_edges_dropped")

	// Line 2: initialize f to starting point, p to its performance.
	start := p.Start.Clone()
	if tr.obs.Enabled() {
		tr.coord, tr.move = "start", ""
	}
	tr.test(start)
	if tr.best == nil {
		// Even the starting point failed (e.g. OOM); continue with it
		// as the incumbent structure so candidates can still improve.
		tr.best = start
	}

	// Line 3: induced graph over collections, and the co-location
	// context every candidate of this search reuses.
	var og *overlap.Graph
	var cl *colocator
	if c.Constrained && p.Overlap != nil {
		og = p.Overlap.Clone()
		cl = newColocator(p, og)
	}

	taskOrder := p.Space.TasksByRuntime()
	if c.IgnoreProfiledOrder {
		taskOrder = taskOrder[:0]
		for _, t := range p.Graph.Tasks {
			taskOrder = append(taskOrder, t.ID)
		}
	}
	tunable := p.tunableSet()

	for r := 1; r <= rotations; r++ {
		mRotations.Add(1)
		if tr.obs.Enabled() {
			edges := 0
			if og != nil {
				edges = og.NumEdges()
			}
			tr.obs.Emit(telemetry.RotationStarted{Rotation: r, ConstraintEdges: edges})
		}
		// The rotation span is stamped with the simulated search clock and
		// closed only on deterministic exits (rotation done, time or
		// suggestion budget): a cancellation is a wall-clock event outside
		// the deterministic stream, so it leaves the span open and the
		// resumed run — replaying the same trajectory — closes it at the
		// position the uninterrupted run would have.
		rotSpan := tr.obs.StartSpan(p.Span, "rotation", fmt.Sprintf("rotation %d", r), ev.SearchTimeSec())
		for _, tid := range taskOrder {
			if tunable != nil && !tunable[tid] {
				continue
			}
			if reason := budget.reason(ev, tr.suggested); reason != "" {
				if !reason.Stopped() {
					tr.obs.EndSpan(rotSpan, ev.SearchTimeSec())
				}
				return tr.outcome(reason)
			}
			c.optimizeTask(p, tr, cl, tid, budget)
			// A cancellation inside the per-task sweep surfaces here so
			// the outcome carries the interrupt instead of marching on
			// to the next task.
			if reason := budget.ContextStop(); reason != "" {
				return tr.outcome(reason)
			}
		}
		// Line 8: remove original_num_edges/(num_rotations-1) lightest
		// edges, so the final rotation runs unconstrained.
		if og != nil && rotations > 1 {
			quota := og.OriginalNumEdges() / (rotations - 1)
			if quota < 1 {
				quota = 1
			}
			removed := og.PruneLightest(quota)
			mDropped.Add(int64(len(removed)))
			if tr.obs.Enabled() {
				for _, e := range removed {
					tr.obs.Emit(telemetry.ConstraintDropped{
						Rotation: r, CollA: int(e.A), CollB: int(e.B), WeightBytes: e.Weight,
					})
				}
			}
		}
		tr.obs.EndSpan(rotSpan, ev.SearchTimeSec())
	}
	return tr.outcome(StopConverged)
}

// move is one candidate move of the per-task sweep: either a distribution
// flip (isDist) or a (processor kind, argument, memory kind) assignment.
type move struct {
	isDist bool
	dist   bool
	k      machine.ProcKind
	argIdx int
	r      machine.MemKind
}

// enumerateMoves lists the full move set of Algorithm 1's OptimizeTask in
// evaluation order: the two distribution settings (lines 11–12), then
// processor kind × argument × memory kind (lines 13–18).
func (c *CCD) enumerateMoves(p *Problem, tid taskir.TaskID) []move {
	t := p.Graph.Task(tid)
	argOrder := p.Space.ArgsBySize(tid)
	if c.IgnoreProfiledOrder {
		argOrder = argOrder[:0]
		for a := range t.Args {
			argOrder = append(argOrder, a)
		}
	}
	moves := []move{{isDist: true, dist: true}, {isDist: true, dist: false}}
	for _, k := range p.Model.ProcKinds {
		if !t.HasVariant(k) {
			continue
		}
		for _, argIdx := range argOrder {
			for _, r := range p.Model.Accessible(k) {
				moves = append(moves, move{k: k, argIdx: argIdx, r: r})
			}
		}
	}
	return moves
}

// buildMove materializes mv as a candidate mapping derived from the current
// incumbent. Candidates are copy-on-write clones: the sweep produces many
// candidates that differ from the incumbent in one task's decision, so only
// that decision is deep-copied. cl is nil when the search is unconstrained.
func (c *CCD) buildMove(p *Problem, tr *tracker, cl *colocator, tid taskir.TaskID, mv move) *mapping.Mapping {
	cand := tr.best.CloneCOW()
	if mv.isDist {
		cand.SetDistribute(tid, mv.dist)
		return cand
	}
	cand.SetProc(tid, mv.k)
	cand.RebuildPriorityLists(p.Model, tid)
	cand.SetArgMem(p.Model, tid, mv.argIdx, mv.r)
	if cl != nil {
		cl.apply(cand, tid, mv.argIdx, mv.k, mv.r)
	}
	return cand
}

// setLabels attaches the telemetry coordinate/move labels for mv (only
// called when the observer is enabled).
func setLabels(tr *tracker, taskName string, mv move) {
	if mv.isDist {
		tr.coord = taskName + ".dist"
		tr.move = fmt.Sprintf("distribute=%v", mv.dist)
	} else {
		tr.coord = fmt.Sprintf("%s.arg%d", taskName, mv.argIdx)
		tr.move = fmt.Sprintf("proc=%s mem=%s", mv.k, mv.r)
	}
}

// optimizeTask is Algorithm 1's OptimizeTask: greedily optimize the
// distribution setting, then jointly sweep processor kinds and per-argument
// memory kinds.
//
// The remaining move set is built against the incumbent and tested in
// order; on an accepted improvement the moves after it are rebuilt from
// the new incumbent. Every candidate passed to Evaluate is therefore built
// from the incumbent current at its turn: the sequential sweep. When the
// evaluator supports batch evaluation, each built set is also submitted
// speculatively before it is tested, which leaves the trajectory
// byte-identical (TestCCDPrefetchKeepsTrajectory).
func (c *CCD) optimizeTask(p *Problem, tr *tracker, cl *colocator, tid taskir.TaskID, budget Budget) {
	t := p.Graph.Task(tid)
	observe := tr.obs.Enabled()
	moves := c.enumerateMoves(p, tid)
	batch, _ := tr.ev.(BatchEvaluator)
	for i := 0; i < len(moves); {
		rest := moves[i:]
		cands := make([]*mapping.Mapping, len(rest))
		for j, mv := range rest {
			cands[j] = c.buildMove(p, tr, cl, tid, mv)
		}
		if batch != nil {
			batch.Prefetch(cands)
		}
		advanced := false
		for j, mv := range rest {
			// Deterministic budget bounds are only checked per task,
			// but a cancellation stops the sweep mid-task: with a
			// real-runtime evaluator every further move is a real
			// execution.
			if budget.ContextStop() != "" {
				return
			}
			if observe {
				setLabels(tr, t.Name, mv)
			}
			if tr.test(cands[j]) {
				// New incumbent: the remaining moves must derive
				// from it.
				i += j + 1
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
}
