// Package mapping represents mapping functions for task-based programs.
//
// Following Section 3.2 of the paper, a (searched) mapping has the signature
//
//	tasks × collections → bool × processor kind × memory kind
//
// where the bool says whether the group task is distributed across the
// machine's nodes, the processor kind is shared by all points of the group,
// and a memory kind is selected per collection argument. Per Section 3.1,
// the memory-kind component generalizes to a priority list of memory kinds,
// all addressable by the chosen processor kind: the first memory with room
// for the collection instance is used, which makes mappings resilient to
// capacity overflow (exercised by the Figure 8 experiments).
package mapping

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	"automap/internal/machine"
	"automap/internal/taskir"
)

// Decision is the mapping of one group task and its collection arguments.
type Decision struct {
	// Distribute selects whether the group's points are spread across
	// all machine nodes in a blocked fashion (true) or all run on the
	// initial leader node (false).
	Distribute bool
	// Proc is the processor kind for every point of the group.
	Proc machine.ProcKind
	// Mems holds, per collection argument (in taskir.GroupTask.Args
	// order), the priority list of memory kinds. Mems[i][0] is the
	// primary choice.
	Mems [][]machine.MemKind
}

// clone returns a deep copy of the decision. The copied priority lists
// share one backing array, each capped at its own length, so a list that
// grows moves out instead of overwriting its neighbour.
func (d *Decision) clone() *Decision {
	cp := &Decision{Distribute: d.Distribute, Proc: d.Proc, Mems: make([][]machine.MemKind, len(d.Mems))}
	n := 0
	for _, ms := range d.Mems {
		n += len(ms)
	}
	flat := make([]machine.MemKind, n)
	for i, ms := range d.Mems {
		if len(ms) > 0 {
			cp.Mems[i] = flat[:len(ms):len(ms)]
			flat = flat[copy(flat, ms):]
		}
	}
	return cp
}

// PrimaryMem returns the first memory kind in the priority list of argument
// arg.
func (d *Decision) PrimaryMem(arg int) machine.MemKind { return d.Mems[arg][0] }

// Mapping is a full mapping for a program: one Decision per group task,
// indexed by taskir.TaskID.
//
// Mappings support copy-on-write cloning (CloneCOW): a COW clone shares
// decision storage with its parent until one of them mutates a decision
// through a setter, at which point only that decision is copied. The search
// inner loops rely on this — a candidate move differs from the incumbent in
// exactly one decision, so cloning the other N-1 is wasted work.
type Mapping struct {
	decisions []*Decision
	// shared[i] marks decisions[i] as possibly aliased by another mapping
	// (a COW parent or clone); setters must copy it before mutating. A nil
	// slice means no decision is shared.
	shared []bool
	// owned lists the decisions the setters copied since the last
	// CloneCOW, in copy order. Such a copy is exclusive to this mapping,
	// so its priority lists are rewritten in place, and they are the only
	// decisions Sanitize has to visit.
	owned []taskir.TaskID
}

// New returns a mapping with one zero-valued decision per task of g. All
// decision fields must be populated before use; prefer Default.
func New(g *taskir.Graph) *Mapping {
	m := &Mapping{decisions: make([]*Decision, len(g.Tasks))}
	for i, t := range g.Tasks {
		m.decisions[i] = &Decision{Mems: make([][]machine.MemKind, len(t.Args))}
	}
	return m
}

// Default returns the paper's starting point (Section 4.1): group tasks are
// distributed across all nodes, tasks with GPU variants run on GPUs, and
// all collections go to the highest-bandwidth memory addressable by the
// chosen kind (Frame-Buffer for GPUs, socket System memory for CPUs), with
// the remaining addressable kinds appended as fallbacks in order.
func Default(g *taskir.Graph, md *machine.Model) *Mapping {
	m := New(g)
	for i, t := range g.Tasks {
		d := m.decisions[i]
		d.Distribute = true
		if t.HasVariant(machine.GPU) && md.HasProcKind(machine.GPU) {
			d.Proc = machine.GPU
		} else {
			d.Proc = machine.CPU
		}
		prim := PreferredMem(d.Proc)
		for a := range t.Args {
			d.Mems[a] = PriorityList(md, d.Proc, prim)
		}
	}
	return m
}

// PreferredMem returns the highest-bandwidth memory kind conventionally
// addressable by processor kind k (the default-mapper heuristic).
func PreferredMem(k machine.ProcKind) machine.MemKind {
	if k == machine.GPU {
		return machine.FrameBuffer
	}
	return machine.SysMem
}

// PriorityList builds a memory priority list for processor kind pk whose
// primary choice is prim, followed by the other memory kinds addressable by
// pk in the model's deterministic order. If prim is not addressable by pk,
// the list is just the addressable kinds.
func PriorityList(md *machine.Model, pk machine.ProcKind, prim machine.MemKind) []machine.MemKind {
	return appendPriorityList(make([]machine.MemKind, 0, len(md.Accessible(pk))), md, pk, prim)
}

// appendPriorityList appends PriorityList(md, pk, prim) to the empty slice
// out, reusing its capacity.
func appendPriorityList(out []machine.MemKind, md *machine.Model, pk machine.ProcKind, prim machine.MemKind) []machine.MemKind {
	acc := md.Accessible(pk)
	if md.CanAccess(pk, prim) {
		out = append(out, prim)
	}
	for _, mk := range acc {
		if mk != prim || !md.CanAccess(pk, prim) {
			if len(out) > 0 && out[0] == mk {
				continue
			}
			out = append(out, mk)
		}
	}
	return out
}

// Decision returns the decision for task id. The returned pointer aliases
// the mapping's state; use Clone before mutating a shared mapping. Mutating
// through the returned pointer is only safe on mappings that were never
// COW-cloned (CloneCOW) — builder code constructing a fresh mapping may do
// it, search code must use the setters.
func (m *Mapping) Decision(id taskir.TaskID) *Decision { return m.decisions[id] }

// NumTasks returns the number of task decisions.
func (m *Mapping) NumTasks() int { return len(m.decisions) }

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	cp := &Mapping{decisions: make([]*Decision, len(m.decisions))}
	for i, d := range m.decisions {
		cp.decisions[i] = d.clone()
	}
	return cp
}

// CloneCOW returns a copy-on-write clone: the clone shares every decision
// with m until either mapping mutates one through a setter, which copies
// just that decision. Cloning is O(tasks) pointer copies instead of a deep
// copy; the common search move (mutate one decision, keep N-1) costs one
// decision copy total. Take COW clones only of sanitized (valid, canonical)
// mappings: Sanitize treats still-shared decisions as already sanitized and
// skips them.
func (m *Mapping) CloneCOW() *Mapping {
	n := len(m.decisions)
	cp := &Mapping{
		decisions: append([]*Decision(nil), m.decisions...),
		shared:    make([]bool, n),
	}
	if m.shared == nil {
		m.shared = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		m.shared[i] = true
		cp.shared[i] = true
	}
	m.owned = m.owned[:0]
	return cp
}

// mutable returns the decision for task id, first copying it if it may be
// aliased by a COW parent or clone.
func (m *Mapping) mutable(id taskir.TaskID) *Decision {
	if m.shared != nil && m.shared[id] {
		m.decisions[id] = m.decisions[id].clone()
		m.shared[id] = false
		m.owned = append(m.owned, id)
	}
	return m.decisions[id]
}

// listBuf returns an empty slice with room for n memory kinds to rebuild
// the priority list ms into. A mapping under copy-on-write (shared !=
// nil) mutates only decisions mutable copied for it, whose lists are
// exclusive, so ms is reused; otherwise a builder may have shared one list
// between decisions, and the slice is new.
func (m *Mapping) listBuf(ms []machine.MemKind, n int) []machine.MemKind {
	if m.shared != nil && cap(ms) >= n {
		return ms[:0]
	}
	return make([]machine.MemKind, 0, n)
}

// SetProc assigns task id to processor kind pk without touching memories.
func (m *Mapping) SetProc(id taskir.TaskID, pk machine.ProcKind) {
	m.mutable(id).Proc = pk
}

// SetDistribute sets the distribution bit of task id.
func (m *Mapping) SetDistribute(id taskir.TaskID, d bool) {
	m.mutable(id).Distribute = d
}

// SetArgMem sets the primary memory kind of argument arg of task id,
// rebuilding the priority list against the model so fallbacks remain
// addressable by the task's current processor kind.
func (m *Mapping) SetArgMem(md *machine.Model, id taskir.TaskID, arg int, mk machine.MemKind) {
	d := m.mutable(id)
	d.Mems[arg] = appendPriorityList(m.listBuf(d.Mems[arg], len(md.Accessible(d.Proc))), md, d.Proc, mk)
}

// SetArgMemRaw sets the primary memory kind of argument arg of task id
// without consulting the machine model. The mapping may be temporarily
// invalid (primary not addressable by the task's processor kind); callers
// must restore validity, e.g. via Sanitize, before evaluation. Used by the
// co-location fixed point (Algorithm 2) and by unconstrained tuners.
func (m *Mapping) SetArgMemRaw(id taskir.TaskID, arg int, mk machine.MemKind) {
	d := m.mutable(id)
	old := d.Mems[arg]
	if len(old) == 0 {
		d.Mems[arg] = []machine.MemKind{mk}
		return
	}
	// Keep the old list as fallbacks, minus the new primary. Under
	// copy-on-write the list is rewritten in place (see listBuf): each
	// kept kind shifts right into a slot already read, and the list grows
	// by one only when it did not hold mk.
	out := old
	if m.shared == nil {
		out = make([]machine.MemKind, len(old), len(old)+1)
	}
	w, carry := 0, mk
	for _, k := range old {
		if k == mk {
			continue
		}
		out[w] = carry
		w++
		carry = k
	}
	d.Mems[arg] = append(out[:w], carry)
}

// Sanitize restores validity in place: tasks mapped to kinds they have no
// variant for (or that the machine lacks) move to their first available
// variant kind, and every argument's priority list is rebuilt so that the
// primary is kept when addressable and replaced by the processor kind's
// preferred memory otherwise.
func (m *Mapping) Sanitize(g *taskir.Graph, md *machine.Model) {
	if m.shared != nil {
		// A decision still shared with a COW parent/clone is an
		// untouched copy from that mapping. COW clones are only taken of
		// sanitized mappings (search incumbents), for which the rebuild
		// below is an identical no-op — so only the decisions the
		// setters copied since the clone need it, and a candidate costs
		// what its move touched.
		for _, id := range m.owned {
			m.sanitize(g.Task(id), md)
		}
		return
	}
	for _, t := range g.Tasks {
		m.sanitize(t, md)
	}
}

// sanitize restores the validity of task t's decision (see Sanitize).
func (m *Mapping) sanitize(t *taskir.GroupTask, md *machine.Model) {
	d := m.mutable(t.ID)
	if !t.HasVariant(d.Proc) || !md.HasProcKind(d.Proc) {
		for _, k := range t.VariantKinds() {
			if md.HasProcKind(k) {
				d.Proc = k
				break
			}
		}
	}
	m.RebuildPriorityLists(md, t.ID)
}

// RebuildPriorityLists rebuilds every argument's priority list of task id,
// keeping each primary choice if it is addressable by the (possibly new)
// processor kind and otherwise replacing it with the kind's preferred
// memory. This is used after moving a task between processor kinds.
func (m *Mapping) RebuildPriorityLists(md *machine.Model, id taskir.TaskID) {
	d := m.mutable(id)
	n := len(md.Accessible(d.Proc))
	for a := range d.Mems {
		prim := PreferredMem(d.Proc)
		if len(d.Mems[a]) > 0 && md.CanAccess(d.Proc, d.Mems[a][0]) {
			prim = d.Mems[a][0]
		}
		d.Mems[a] = appendPriorityList(m.listBuf(d.Mems[a], n), md, d.Proc, prim)
	}
}

// Violation is one validity defect of a mapping, located at a task and
// optionally at one of its collection arguments. Violation implements error
// so a slice of them can be joined into a single validation error.
type Violation struct {
	// Task is the offending task, or -1 for mapping-level defects (e.g.
	// decision-count mismatch).
	Task taskir.TaskID
	// Arg is the offending argument index, or -1 for task-level defects.
	Arg int
	// Msg describes the defect, with task/argument names already resolved.
	Msg string
}

// Error returns the violation message.
func (v Violation) Error() string { return v.Msg }

// Violations returns every validity defect of the mapping against program g
// and machine model md: tasks mapped to processor kinds they have no variant
// for or the machine lacks, argument/priority-list count mismatches, empty
// priority lists, and listed memory kinds the processor kind cannot address
// (the paper's correctness constraint). A nil result means the mapping is
// valid. Unlike Validate, which joins the defects into one error, Violations
// keeps them structured so the static analyzer can turn each into a located
// diagnostic.
func (m *Mapping) Violations(g *taskir.Graph, md *machine.Model) []Violation {
	var out []Violation
	if len(m.decisions) != len(g.Tasks) {
		return []Violation{{Task: -1, Arg: -1,
			Msg: fmt.Sprintf("mapping covers %d tasks, program has %d", len(m.decisions), len(g.Tasks))}}
	}
	for i, t := range g.Tasks {
		d := m.decisions[i]
		if !t.HasVariant(d.Proc) {
			out = append(out, Violation{Task: t.ID, Arg: -1,
				Msg: fmt.Sprintf("task %q mapped to %s but has no %s variant", t.Name, d.Proc, d.Proc)})
		} else if !md.HasProcKind(d.Proc) {
			out = append(out, Violation{Task: t.ID, Arg: -1,
				Msg: fmt.Sprintf("task %q mapped to %s, absent from machine %q", t.Name, d.Proc, md.Name)})
		}
		if len(d.Mems) != len(t.Args) {
			out = append(out, Violation{Task: t.ID, Arg: -1,
				Msg: fmt.Sprintf("task %q has %d args but %d memory lists", t.Name, len(t.Args), len(d.Mems))})
			continue
		}
		for a := range t.Args {
			if len(d.Mems[a]) == 0 {
				out = append(out, Violation{Task: t.ID, Arg: a,
					Msg: fmt.Sprintf("task %q arg %d has an empty memory priority list", t.Name, a)})
				continue
			}
			for _, mk := range d.Mems[a] {
				if !md.CanAccess(d.Proc, mk) {
					out = append(out, Violation{Task: t.ID, Arg: a,
						Msg: fmt.Sprintf("task %q arg %d lists %s, not addressable by %s", t.Name, a, mk, d.Proc)})
				}
			}
		}
	}
	return out
}

// Validate checks the mapping against the program and machine model: every
// task must have a variant for its processor kind, every argument must have
// a non-empty priority list, and every listed memory kind must be
// addressable by the processor kind (the paper's correctness constraint).
// All defects are reported, joined into a single error; errors.Is/As can
// unwrap the individual Violation values.
func (m *Mapping) Validate(g *taskir.Graph, md *machine.Model) error {
	vs := m.Violations(g, md)
	if len(vs) == 0 {
		return nil
	}
	errs := make([]error, len(vs))
	for i, v := range vs {
		errs[i] = v
	}
	return errors.Join(errs...)
}

// Key returns a canonical, collision-resistant key identifying the mapping.
// Two mappings with identical decisions have equal keys. Used by the
// profile database to recognize repeated suggestions (Section 5.3 reports
// suggested vs. evaluated counts).
//
// The encoding is a compact byte serialization rather than the printable
// canonicalString: Key is on the per-candidate hot path (plan and
// profile-database identity for every evaluation), and the byte form
// hashes from a stack buffer with a single allocation for the returned
// string. Kind values are single bytes well below the 0xFE/0xFF
// terminators, so the encoding is unambiguous.
func (m *Mapping) Key() string {
	var buf [2048]byte
	b := buf[:0]
	for _, d := range m.decisions {
		if d.Distribute {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = append(b, byte(d.Proc))
		for _, ms := range d.Mems {
			for _, mk := range ms {
				b = append(b, byte(mk))
			}
			b = append(b, 0xFF) // argument terminator
		}
		b = append(b, 0xFE) // task terminator
	}
	sum := sha256.Sum256(b)
	var out [32]byte
	hex.Encode(out[:], sum[:16])
	return string(out[:])
}

// canonicalString renders the mapping deterministically.
func (m *Mapping) canonicalString() string {
	var b strings.Builder
	for i, d := range m.decisions {
		fmt.Fprintf(&b, "t%d:%v:%d[", i, d.Distribute, d.Proc)
		for a, ms := range d.Mems {
			if a > 0 {
				b.WriteByte(';')
			}
			for j, mk := range ms {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", mk)
			}
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Equal reports whether two mappings make identical decisions.
func (m *Mapping) Equal(o *Mapping) bool {
	if len(m.decisions) != len(o.decisions) {
		return false
	}
	return m.canonicalString() == o.canonicalString()
}

// String renders the mapping for human inspection: one line per task with
// its distribution bit, processor kind, and primary memory kind per
// argument.
func (m *Mapping) String() string {
	var b strings.Builder
	for i, d := range m.decisions {
		dist := "leader"
		if d.Distribute {
			dist = "distributed"
		}
		fmt.Fprintf(&b, "task %d -> %s (%s):", i, d.Proc, dist)
		for a, ms := range d.Mems {
			if len(ms) > 0 {
				fmt.Fprintf(&b, " c%d=%s", a, ms[0].ShortString())
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Describe renders the mapping with task and collection names from g.
func (m *Mapping) Describe(g *taskir.Graph) string {
	var b strings.Builder
	for i, d := range m.decisions {
		t := g.Tasks[i]
		dist := "leader"
		if d.Distribute {
			dist = "distributed"
		}
		fmt.Fprintf(&b, "%-24s -> %-3s (%s):", t.Name, d.Proc, dist)
		for a, arg := range t.Args {
			c := g.Collection(arg.Collection)
			fmt.Fprintf(&b, " %s=%s", c.Name, d.Mems[a][0].ShortString())
		}
		b.WriteByte('\n')
	}
	return b.String()
}
