package search

import (
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/mapping"
	"automap/internal/overlap"
	"automap/internal/taskir"
)

// BenchmarkCCDCandidateConstruction times building one full per-task move
// set of candidates the way the sweep does — copy-on-write clones with one
// decision rewritten plus co-location propagation — on the benchmark's htr
// 32x256y36z ×2 program, for the task whose arguments drag the most other
// task arguments along (the largest overlap sets). This is the per-proposal
// algorithm cost of CCD; a search builds thousands of candidates per
// rotation.
func BenchmarkCCDCandidateConstruction(b *testing.B) {
	const nodes = 2
	g, err := apps.HTR.Build("32x256y36z", nodes)
	if err != nil {
		b.Fatal(err)
	}
	md := cluster.Shepard(nodes).Model()
	p := &Problem{Graph: g, Model: md, Space: spaceOf(g), Overlap: overlap.Build(g), Start: mapping.Default(g, md)}
	og := p.Overlap.Clone()
	tid, most := g.Tasks[0].ID, -1
	for _, task := range g.Tasks {
		n := 0
		for _, arg := range task.Args {
			n += len(og.OverlapSet(arg.Collection))
		}
		if n > most {
			tid, most = task.ID, n
		}
	}
	c := NewCCD()
	tr := newTracker(p, newFakeEval(g, md, [2]taskir.CollectionID{0, 1}))
	tr.best = p.Start
	cl := newColocator(p, og)
	moves := c.enumerateMoves(p, tid)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, mv := range moves {
			if c.buildMove(p, tr, cl, tid, mv) == nil {
				b.Fatal("nil candidate")
			}
		}
	}
	b.ReportMetric(float64(len(moves)), "moves/op")
}
