// Diagnostic types of the static analyzer: coded, severity-ranked findings
// with source locations naming the task, argument, and collection involved.

package analyze

import (
	"fmt"
	"sort"
	"strings"

	"automap/internal/taskir"
)

// Severity ranks a diagnostic.
type Severity int

// Severities, in increasing order of gravity.
const (
	// Info marks observations that need no action (e.g. a collection that
	// is a program output, or a variant the machine cannot use).
	Info Severity = iota
	// Warn marks decisions that execute but are likely mistakes or cost
	// performance (duplicate priority-list entries, co-location
	// violations, pointless distribute bits).
	Warn
	// Error marks programs or mappings that cannot execute: the
	// simulator would reject them (validation failure, out of memory).
	Error
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// Code identifies a diagnostic class. Codes are stable across releases so
// they can be filtered, suppressed, and documented (see the README table).
type Code string

// Diagnostic codes. Each code belongs to exactly one pass.
const (
	// CodeRace: conflicting accesses to overlapping collections with no
	// dependence ordering the tasks (potential race; Warn because halo
	// exchange patterns are indistinguishable statically).
	CodeRace Code = "AM0001"
	// CodeOOM: the mapping's worst-case footprint exceeds memory
	// capacities; the simulator would fail with an OOMError.
	CodeOOM Code = "AM0002"
	// CodeBadProc: a task is mapped to a processor kind it has no
	// variant for, or one the machine does not have.
	CodeBadProc Code = "AM0003"
	// CodeUnreachableVariant: a task variant targets a processor kind
	// absent from the machine and can never be selected.
	CodeUnreachableVariant Code = "AM0004"
	// CodeBadMemList: a memory priority list is empty or names a kind
	// the task's processor kind cannot address.
	CodeBadMemList Code = "AM0005"
	// CodeDupMemList: a memory priority list contains duplicate kinds.
	CodeDupMemList Code = "AM0006"
	// CodeUselessDistribute: the distribute bit is set on a task it
	// cannot help (single point, or no partitioned collection).
	CodeUselessDistribute Code = "AM0007"
	// CodeColocation: overlapping collections are mapped to different
	// memory kinds, forcing data movement the overlap graph would avoid.
	CodeColocation Code = "AM0008"
	// CodeDeadNode: a collection is written but never read, or a task's
	// outputs are never consumed.
	CodeDeadNode Code = "AM0009"
	// CodeMemPressure: a concrete memory is nearly full under the
	// mapping's placement; small input growth will spill or OOM.
	CodeMemPressure Code = "AM0010"
)

// Diagnostic is one finding of one pass.
type Diagnostic struct {
	Code     Code
	Severity Severity
	// Pass is the name of the pass that produced the finding.
	Pass string

	// Task, Arg, and Collection locate the finding; negative values mean
	// the component does not apply.
	Task       taskir.TaskID
	Arg        int
	Collection taskir.CollectionID
	// Node is the machine node involved, or -1.
	Node int

	// Msg is the human-readable description.
	Msg string
}

// loc renders the source location naming task/arg/collection from g (which
// may be nil when the diagnostic is detached from a graph).
func (d *Diagnostic) loc(g *taskir.Graph) string {
	var parts []string
	if d.Task >= 0 {
		name := fmt.Sprintf("task %d", d.Task)
		if g != nil && int(d.Task) < len(g.Tasks) {
			name = fmt.Sprintf("task %q", g.Tasks[d.Task].Name)
		}
		parts = append(parts, name)
	}
	if d.Arg >= 0 {
		parts = append(parts, fmt.Sprintf("arg %d", d.Arg))
	}
	if d.Collection >= 0 {
		name := fmt.Sprintf("collection %d", d.Collection)
		if g != nil && int(d.Collection) < len(g.Collections) {
			name = fmt.Sprintf("collection %q", g.Collections[d.Collection].Name)
		}
		parts = append(parts, name)
	}
	if d.Node >= 0 {
		parts = append(parts, fmt.Sprintf("node %d", d.Node))
	}
	if len(parts) == 0 {
		return ""
	}
	return strings.Join(parts, " ")
}

// Format renders the diagnostic with names resolved from g:
//
//	AM0002 error [feasibility] task "stencil" arg 1 collection "grid_out": ...
func (d *Diagnostic) Format(g *taskir.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s [%s]", d.Code, d.Severity, d.Pass)
	if loc := d.loc(g); loc != "" {
		b.WriteByte(' ')
		b.WriteString(loc)
	}
	b.WriteString(": ")
	b.WriteString(d.Msg)
	return b.String()
}

// String renders the diagnostic without a graph (IDs instead of names).
func (d *Diagnostic) String() string { return d.Format(nil) }

// noLoc returns a Diagnostic skeleton with all location fields cleared;
// passes fill in the components that apply.
func noLoc(code Code, sev Severity, pass string) Diagnostic {
	return Diagnostic{
		Code: code, Severity: sev, Pass: pass,
		Task: -1, Arg: -1, Collection: -1, Node: -1,
	}
}

// Report is the outcome of an analysis: the diagnostics of every pass run,
// sorted by (severity desc, code, task, arg, collection).
type Report struct {
	// Graph is the analyzed program, retained for name resolution.
	Graph *taskir.Graph
	// Diags holds the findings.
	Diags []Diagnostic
	// Passes lists the names of the passes that ran.
	Passes []string
}

// sorted orders diagnostics most severe first, then by code and location,
// so output is deterministic and errors lead.
func (r *Report) sorted() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := &r.Diags[i], &r.Diags[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Arg != b.Arg {
			return a.Arg < b.Arg
		}
		if a.Collection != b.Collection {
			return a.Collection < b.Collection
		}
		return a.Node < b.Node
	})
}

// Count returns the number of diagnostics at exactly severity s.
func (r *Report) Count(s Severity) int {
	n := 0
	for i := range r.Diags {
		if r.Diags[i].Severity == s {
			n++
		}
	}
	return n
}

// HasErrors reports whether any diagnostic is an Error.
func (r *Report) HasErrors() bool { return r.Count(Error) > 0 }

// Filter returns the diagnostics at or above severity min.
func (r *Report) Filter(min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// String renders the report, one diagnostic per line with a trailing
// summary.
func (r *Report) String() string {
	var b strings.Builder
	for i := range r.Diags {
		b.WriteString(r.Diags[i].Format(r.Graph))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%d error(s), %d warning(s), %d note(s)\n",
		r.Count(Error), r.Count(Warn), r.Count(Info))
	return b.String()
}
