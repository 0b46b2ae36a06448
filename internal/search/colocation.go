// Co-location constraints (Algorithm 2 of the paper).
//
// CCD enforces two constraints on every candidate mapping:
//
//  1. a task argument is mapped to a memory kind addressable by the task's
//     processor kind (correctness);
//  2. collections joined by an edge of the overlap graph C are mapped to
//     the same memory kind (co-location, to minimize data movement).
//
// After CCD changes one decision — task t moves to processor kind k and its
// argument referencing collection c moves to memory kind r — this file
// propagates the two rules to a global fixed point: overlapping collections
// follow c to r; tasks whose arguments became unaddressable move to k;
// arguments of moved tasks that are now unaddressable are re-homed to an
// addressable kind and drag their own overlap sets along. The process
// converges because the limiting case is that every task/collection is
// mapped to the same processor/memory kind; a generous step bound guards
// against pathological inputs.
//
// A search builds thousands of candidates, so the fixed point costs what
// the move touches: overlap sets come memoized from the overlap graph (they
// change only when a rotation prunes it), the worklists are bitsets reused
// across candidates, and the closing Sanitize visits only the decisions the
// move copied.

package search

import (
	"math/bits"

	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/taskir"
)

// colocator is one search's co-location context: the per-program facts
// the fixed point reads, computed once, and the worklists every candidate
// reuses. It is not safe for concurrent use.
type colocator struct {
	p  *Problem
	og *overlap.Graph
	// frozen[t] marks a task outside Problem.Tunable; nil when every task
	// is tunable.
	frozen []bool
	// argOff[t] is the flat index of task t's first argument; args[i] is
	// the (task, arg) pair at flat index i.
	argOff []int
	args   []overlap.TaskArg
	// maxSteps bounds the fixed point's outer iterations.
	maxSteps int
	// tCheck holds task IDs, cCheck flat argument indices; both pop their
	// smallest member, so tasks and (task, arg) pairs are visited in
	// ascending order.
	tCheck, cCheck worklist
}

// newColocator builds the co-location context for a search of p over the
// overlap graph og (the search's own clone, pruned between rotations).
func newColocator(p *Problem, og *overlap.Graph) *colocator {
	g := p.Graph
	cl := &colocator{p: p, og: og, argOff: make([]int, len(g.Tasks))}
	for _, task := range g.Tasks {
		cl.argOff[task.ID] = len(cl.args)
		for a, arg := range task.Args {
			cl.args = append(cl.args, overlap.TaskArg{Task: task.ID, Arg: a, Collection: arg.Collection})
		}
	}
	if p.Tunable != nil {
		cl.frozen = make([]bool, len(g.Tasks))
		for i := range cl.frozen {
			cl.frozen[i] = true
		}
		for _, id := range p.Tunable {
			cl.frozen[id] = false
		}
	}
	cl.maxSteps = 8 * (len(cl.args) + len(g.Tasks) + 8)
	cl.tCheck = newWorklist(len(g.Tasks))
	cl.cCheck = newWorklist(len(cl.args))
	return cl
}

// apply mutates cand in place, enforcing the co-location constraints after
// the decision "map t on k, c(argIdx) on r" (Algorithm 2).
func (cl *colocator) apply(cand *mapping.Mapping, t taskir.TaskID, argIdx int, k machine.ProcKind, r machine.MemKind) {
	g, md, og := cl.p.Graph, cl.p.Model, cl.og
	c := g.Task(t).Args[argIdx].Collection
	frozen := func(id taskir.TaskID) bool {
		return cl.frozen != nil && cl.frozen[id]
	}
	tCheck, cCheck := &cl.tCheck, &cl.cCheck

	// Lines 4–6: map all collections overlapping with c to r and record
	// their tasks.
	for _, ta := range og.OverlapSet(c) {
		if frozen(ta.Task) {
			continue
		}
		if !(ta.Task == t && ta.Arg == argIdx) {
			cand.SetArgMemRaw(ta.Task, ta.Arg, r)
		}
		tCheck.add(int(ta.Task))
	}

	// inOrigSet reports whether (t, c) ∈ O[(ti, ci)]; since the overlap
	// relation is symmetric, this holds iff ci == c or (c, ci) ∈ C.
	inOrigSet := func(ci taskir.CollectionID) bool {
		return ci == c || og.Connected(c, ci)
	}

	// Lines 7–26: iterate to a fixed point.
	for steps := 0; (tCheck.n > 0 || cCheck.n > 0) && steps < cl.maxSteps; steps++ {
		// Lines 8–13: adjust tasks whose collections moved.
		for tCheck.n > 0 {
			ti := taskir.TaskID(tCheck.pop())
			task := g.Task(ti)
			for ai := range task.Args {
				prim := cand.Decision(ti).PrimaryMem(ai)
				if !md.CanAccess(cand.Decision(ti).Proc, prim) {
					if ti != t && task.HasVariant(k) && md.HasProcKind(k) {
						cand.SetProc(ti, k)
					}
					cCheck.add(cl.argOff[ti] + ai)
				}
			}
		}
		// Lines 14–26: adjust collections whose tasks moved.
		for cCheck.n > 0 {
			ta := cl.args[cCheck.pop()]
			ti, ai, ci := ta.Task, ta.Arg, ta.Collection
			// Line 16: select a memory kind addressable by ti's
			// processor kind (deterministically: the kind's
			// preferred memory, else the first accessible).
			pk := cand.Decision(ti).Proc
			m := mapping.PreferredMem(pk)
			if !md.CanAccess(pk, m) {
				acc := md.Accessible(pk)
				if len(acc) == 0 {
					continue
				}
				m = acc[0]
			}
			// Lines 17–18: do not disturb the original decision's
			// overlap set.
			if inOrigSet(ci) {
				continue
			}
			// Line 19.
			cand.SetArgMemRaw(ti, ai, m)
			// Lines 20–26: drag (ti, ci)'s own overlap set along.
			for _, tj := range og.OverlapSet(ci) {
				if tj.Task == ti && tj.Arg == ai {
					continue
				}
				if frozen(tj.Task) {
					continue
				}
				if cand.Decision(tj.Task).PrimaryMem(tj.Arg) == m {
					continue
				}
				cand.SetArgMemRaw(tj.Task, tj.Arg, m)
				if !md.CanAccess(cand.Decision(tj.Task).Proc, m) {
					tCheck.add(int(tj.Task))
				}
				cCheck.remove(cl.argOff[tj.Task] + tj.Arg)
			}
		}
	}
	// The step bound may leave work behind; the next candidate starts
	// empty.
	tCheck.clear()
	cCheck.clear()

	// Safety net: guarantee constraint (1) holds even if the step bound
	// tripped, and rebuild fallback lists for all touched decisions.
	// Frozen tasks were never modified, so sanitizing cannot move them.
	cand.Sanitize(g, md)
}

// worklist is a set of small non-negative integers that pops its smallest
// member: a bitset plus a cursor below which every word is empty.
type worklist struct {
	words []uint64
	lo    int // words[:lo] are all zero
	n     int // members
}

func newWorklist(size int) worklist {
	words := make([]uint64, (size+63)/64)
	return worklist{words: words, lo: len(words)}
}

func (w *worklist) add(i int) {
	word, bit := i>>6, uint64(1)<<(i&63)
	if w.words[word]&bit != 0 {
		return
	}
	w.words[word] |= bit
	w.n++
	if word < w.lo {
		w.lo = word
	}
}

func (w *worklist) remove(i int) {
	word, bit := i>>6, uint64(1)<<(i&63)
	if w.words[word]&bit != 0 {
		w.words[word] &^= bit
		w.n--
	}
}

// pop removes and returns the smallest member; the set must be non-empty.
func (w *worklist) pop() int {
	for w.words[w.lo] == 0 {
		w.lo++
	}
	b := bits.TrailingZeros64(w.words[w.lo])
	w.words[w.lo] &^= 1 << b
	w.n--
	return w.lo<<6 | b
}

func (w *worklist) clear() {
	if w.n == 0 {
		return
	}
	for i := w.lo; i < len(w.words); i++ {
		w.words[i] = 0
	}
	w.lo, w.n = len(w.words), 0
}
