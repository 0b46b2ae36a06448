// Aggregate views of a mapping, used by the experiment harnesses and
// reports: how many tasks run on each processor kind, where collection
// arguments live, and a structural diff between two mappings.

package mapping

import (
	"fmt"
	"strings"

	"automap/internal/machine"
	"automap/internal/taskir"
)

// Stats summarizes a mapping.
type Stats struct {
	// TasksByProc counts group tasks per processor kind.
	TasksByProc map[machine.ProcKind]int
	// ArgsByMem counts collection arguments per primary memory kind.
	ArgsByMem map[machine.MemKind]int
	// Distributed counts tasks with the distribute bit set.
	Distributed int
}

// ComputeStats summarizes mapping m for program g.
func (m *Mapping) ComputeStats(g *taskir.Graph) Stats {
	st := Stats{
		TasksByProc: make(map[machine.ProcKind]int),
		ArgsByMem:   make(map[machine.MemKind]int),
	}
	for _, t := range g.Tasks {
		d := m.Decision(t.ID)
		st.TasksByProc[d.Proc]++
		if d.Distribute {
			st.Distributed++
		}
		for a := range t.Args {
			st.ArgsByMem[d.PrimaryMem(a)]++
		}
	}
	return st
}

// String renders the stats compactly, e.g.
// "26 CPU + 5 GPU tasks; args: 4 ZC, 93 FB; 31 distributed".
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d CPU + %d GPU tasks; args:", s.TasksByProc[machine.CPU], s.TasksByProc[machine.GPU])
	first := true
	for _, mk := range []machine.MemKind{machine.SysMem, machine.ZeroCopy, machine.FrameBuffer} {
		if n := s.ArgsByMem[mk]; n > 0 {
			if !first {
				b.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&b, " %d %s", n, mk.ShortString())
		}
	}
	fmt.Fprintf(&b, "; %d distributed", s.Distributed)
	return b.String()
}
