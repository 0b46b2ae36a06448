package analyze_test

import (
	"testing"

	"automap/internal/analyze"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/sim"
	"automap/internal/taskir"
)

// FuzzAnalyze drives the passes with procedurally generated programs and
// arbitrarily mutated mappings. Three properties must hold:
//
//  1. no pass may panic, whatever the mutations did to the mapping;
//  2. soundness of Error severity — a mapping with Error diagnostics must
//     actually be unexecutable: mapping.Validate rejects it or sim.Simulate
//     fails. (The converse — completeness — is the cross-check test's job.)
//  3. the lint's executability passes (variants, legality, feasibility)
//     report an Error exactly when Infeasible, the launch verdict of
//     validation and placement, rejects the mapping.
func FuzzAnalyze(f *testing.F) {
	f.Add(uint8(2), uint8(3), int64(1<<20), []byte{})
	f.Add(uint8(3), uint8(2), int64(4<<20), []byte{0, 2})          // move a task to GPU
	f.Add(uint8(4), uint8(4), int64(1<<22), []byte{2, 0, 12, 1})   // empty a list, invalid kind
	f.Add(uint8(1), uint8(1), int64(64), []byte{3, 3, 18, 0})      // duplicate, drop an arg list
	f.Add(uint8(6), uint8(6), int64(8<<20), []byte{24, 9, 6, 200}) // big program, big mutations
	executability := []analyze.Pass{passByName(f, "variants"), passByName(f, "legality"), passByName(f, "feasibility")}
	f.Fuzz(func(t *testing.T, nTasks, nCols uint8, size int64, muts []byte) {
		g := fuzzGraph(nTasks, nCols, size)
		m := tinyGPUMachine(4 << 20) // small GPU memories keep OOM reachable
		md := m.Model()
		mp := mapping.Default(g, md)
		applyMutations(mp, g, muts)

		rep := analyze.Check(m, g, mp) // must not panic

		if rep.HasErrors() {
			if err := mp.Validate(g, md); err == nil {
				if _, simErr := sim.Simulate(m, g, mp, sim.Config{}); simErr == nil {
					t.Fatalf("Error diagnostics on a mapping that validates and executes:\n%s", rep)
				}
			}
		}

		lint := analyze.Analyze(&analyze.Context{Graph: g, Machine: m, Mapping: mp}, executability...).HasErrors()
		if verdict := analyze.Infeasible(m, g, mp); lint != verdict {
			t.Fatalf("executability lint has errors = %v but Infeasible = %v on\n%v", lint, verdict, mp)
		}
	})
}

// fuzzGraph builds a small, always-structurally-valid program whose shape is
// controlled by the fuzz inputs: overlapping collections across two spaces,
// mixed privileges, and per-task variant coverage.
func fuzzGraph(nTasks, nCols uint8, size int64) *taskir.Graph {
	nt := 1 + int(nTasks)%6
	nc := 1 + int(nCols)%6
	if size <= 0 {
		size = -size
	}
	size = 1 + size%(16<<20)
	g := taskir.NewGraph("fuzz")
	for i := 0; i < nc; i++ {
		space := "s0"
		if i%3 == 2 {
			space = "s1"
		}
		lo := int64(i) * size / 2 // consecutive collections overlap by half
		g.AddCollection(taskir.Collection{
			Name:        "c" + string(rune('a'+i)),
			Space:       space,
			Lo:          lo,
			Hi:          lo + size,
			Partitioned: i%2 == 0,
		})
	}
	for i := 0; i < nt; i++ {
		variants := map[machine.ProcKind]taskir.Variant{
			machine.CPU: {Kind: machine.CPU, WorkPerPoint: 100, Efficiency: 1},
		}
		if i%2 == 1 {
			variants[machine.GPU] = taskir.Variant{Kind: machine.GPU, WorkPerPoint: 100, Efficiency: 1}
		}
		args := []taskir.Arg{
			{Collection: taskir.CollectionID(i % nc), Privilege: taskir.Privilege(i % 3), BytesPerPoint: 64},
		}
		if nc > 1 {
			args = append(args, taskir.Arg{
				Collection: taskir.CollectionID((i + 1) % nc), Privilege: taskir.Privilege((i + 1) % 3), BytesPerPoint: 64,
			})
		}
		g.AddTask(taskir.GroupTask{Name: "t" + string(rune('a'+i)), Points: 1 + i%5, Variants: variants, Args: args})
	}
	return g
}

// applyMutations perturbs the mapping with one operation per byte pair,
// deliberately including invalid processor kinds, unaddressable and
// out-of-range memory kinds, emptied lists, and dropped argument lists.
func applyMutations(mp *mapping.Mapping, g *taskir.Graph, muts []byte) {
	for i := 0; i+1 < len(muts); i += 2 {
		op, val := muts[i], muts[i+1]
		tid := taskir.TaskID(int(op/6) % len(g.Tasks))
		d := mp.Decision(tid)
		nArgs := len(d.Mems)
		switch op % 6 {
		case 0:
			d.Proc = machine.ProcKind(val % 3) // 2 is not a real kind
		case 1:
			d.Distribute = val%2 == 0
		case 2:
			if nArgs > 0 {
				d.Mems[int(val)%nArgs] = nil
			}
		case 3:
			if nArgs > 0 {
				a := int(val) % nArgs
				if len(d.Mems[a]) > 0 {
					d.Mems[a] = append(d.Mems[a], d.Mems[a][0])
				}
			}
		case 4:
			if nArgs > 0 {
				d.Mems[int(val)%nArgs] = []machine.MemKind{machine.MemKind(val % 5)} // 3,4 are not real kinds
			}
		case 5:
			if nArgs > 0 {
				d.Mems = d.Mems[:nArgs-1] // shape mismatch with the task's args
			}
		}
	}
}
