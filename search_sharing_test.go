// Searches side by side: mapd runs several searches at once, each on its
// own goroutine with its own evaluator and simulator instance. Whatever
// they share — package-level state, and here also the machine and the
// program — must be read-only to them, so a search's report and event
// stream do not depend on what runs beside it. Run under -race (ci.sh
// does) this also checks that no scratch is shared between the searches.
package automap_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"automap"
)

// sharingSearch is one search of TestSearchesShareInputs.
type sharingSearch struct {
	alg  func() automap.Algorithm
	seed uint64
}

// runShared runs one search over the shared machine and program and
// returns its report rendered as bytes: the best mapping in Marshal form,
// every other report field (floats at full precision), and the telemetry
// event stream.
func runShared(m *automap.Machine, g *automap.Graph, s sharingSearch) ([]byte, error) {
	var stream bytes.Buffer
	jsonl := automap.NewJSONLSink(&stream)
	opts := automap.DefaultOptions()
	opts.Seed = s.seed
	opts.Repeats = 3
	opts.FinalRepeats = 5
	opts.Observer = &automap.Observer{Sink: jsonl, Metrics: automap.NewMetricsRegistry()}
	rep, err := automap.Search(m, g, s.alg(), opts, automap.Budget{MaxSuggestions: 150})
	if err != nil {
		return nil, err
	}
	if err := jsonl.Flush(); err != nil {
		return nil, err
	}
	best, err := rep.Best.Marshal(g)
	if err != nil {
		return nil, err
	}
	r := *rep
	r.Best = nil
	out := append(best, '\n')
	out = fmt.Appendf(out, "%+v\n", r)
	return append(out, stream.Bytes()...), nil
}

// TestSearchesShareInputs runs two searches one after the other, then the
// same two on two goroutines over the same *Machine and *Graph, and
// requires byte-identical reports.
func TestSearchesShareInputs(t *testing.T) {
	m := automap.Shepard(1)
	g := buildApp(t, "stencil", "500x500", 1)
	searches := []sharingSearch{
		{alg: func() automap.Algorithm { return automap.NewCCD() }, seed: 3},
		{alg: func() automap.Algorithm { return automap.NewAnneal() }, seed: 4},
	}
	want := make([][]byte, len(searches))
	for i, s := range searches {
		b, err := runShared(m, g, s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = b
	}
	got := make([][]byte, len(searches))
	errs := make([]error, len(searches))
	var wg sync.WaitGroup
	for i, s := range searches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = runShared(m, g, s)
		}()
	}
	wg.Wait()
	for i := range searches {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("search %d: report run beside another search differs from the one run alone", i)
		}
	}
}
