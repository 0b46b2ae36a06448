// Golden corpus of simulation results: the oracle for the timing fold.
// Every Result the simulator returns comes from folding a recorded
// schedule; this corpus pins those Results, digest by digest, across every
// bundled app, three cluster sizes, seeded random mappings, and each
// logging mode. Regenerate with `go test ./internal/sim -run
// TestFoldMatchesCorpus -update` only when the cost model changes on
// purpose.
package sim

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"automap/internal/apps"
	"automap/internal/cluster"
	"automap/internal/machine"
	"automap/internal/mapping"
	"automap/internal/taskir"
	"automap/internal/xrand"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata")

// corpusConfigs are the configs every corpus mapping runs under: noise
// off, noise on, and noise with the event log and the copy log.
var corpusConfigs = []struct {
	name string
	cfg  Config
}{
	{"plain", Config{}},
	{"noise", Config{NoiseSigma: 0.04, Seed: 42}},
	{"trace", Config{NoiseSigma: 0.04, Seed: 42, Trace: true}},
	{"explain", Config{NoiseSigma: 0.04, Seed: 42, Trace: true, Explain: true}},
}

// corpusWalkLen is how many random-walk mappings follow the default one.
const corpusWalkLen = 6

// corpusMappings returns g's default mapping followed by corpusWalkLen
// steps of a random walk from it, each step applying one to three
// CCD-style moves to the previous mapping, plus further moves (up to a
// bound) while the result repeats a mapping already in the walk.
func corpusMappings(g *taskir.Graph, md *machine.Model, rng *xrand.RNG) []*mapping.Mapping {
	mps := []*mapping.Mapping{mapping.Default(g, md)}
	seen := map[string]bool{mps[0].Key(): true}
	for i := 0; i < corpusWalkLen; i++ {
		mp := mps[len(mps)-1].CloneCOW()
		for f := 1 + rng.Intn(3); f > 0; f-- {
			applyRandomMove(rng, g, md, mp)
		}
		for extra := 0; seen[mp.Key()] && extra < 16; extra++ {
			applyRandomMove(rng, g, md, mp)
		}
		seen[mp.Key()] = true
		mps = append(mps, mp)
	}
	return mps
}

// digestField writes one labelled field into h.
func digestField(h hash.Hash, label string, format string, args ...any) {
	fmt.Fprintf(h, label+" "+format+"\n", args...)
}

// digestFloat writes a float's exact bit pattern.
func digestFloat(h hash.Hash, label string, v float64) {
	digestField(h, label, "%016x", math.Float64bits(v))
}

// resultDigest is a SHA-256 over every field of r: floats by their bits,
// maps in sorted key order, slices element by element, and nil-ness of
// every map and slice.
func resultDigest(r *Result) string {
	h := sha256.New()
	digestFloat(h, "makespan", r.MakespanSec)
	digestField(h, "taskwall", "nil=%t n=%d", r.TaskWallSec == nil, len(r.TaskWallSec))
	tids := make([]int, 0, len(r.TaskWallSec))
	for tid := range r.TaskWallSec {
		tids = append(tids, int(tid))
	}
	sort.Ints(tids)
	for _, tid := range tids {
		digestFloat(h, fmt.Sprintf("taskwall[%d]", tid), r.TaskWallSec[taskir.TaskID(tid)])
	}
	digestField(h, "copies", "%d %d %d", r.BytesCopied, r.BytesOnNetwork, r.NumCopies)
	digestField(h, "spills", "%d", r.Spills)
	digestField(h, "peakmem", "nil=%t n=%d", r.PeakMemBytes == nil, len(r.PeakMemBytes))
	for k := 0; k < 256; k++ {
		if v, ok := r.PeakMemBytes[machine.MemKind(k)]; ok {
			digestField(h, fmt.Sprintf("peakmem[%d]", k), "%d", v)
		}
	}
	digestField(h, "events", "nil=%t n=%d", r.Events == nil, len(r.Events))
	for _, e := range r.Events {
		digestField(h, "event", "%d %d %d %d %016x %016x %016x", e.Task, e.Node, e.Kind, e.Iteration,
			math.Float64bits(e.StartSec), math.Float64bits(e.CopySec), math.Float64bits(e.DurSec))
	}
	digestField(h, "copylog", "nil=%t n=%d", r.Copies == nil, len(r.Copies))
	for _, c := range r.Copies {
		digestField(h, "copy", "%d %d %d %d %t %d %016x %016x", c.SrcNode, c.DstNode, c.SrcKind, c.DstKind,
			c.Network, c.Bytes, math.Float64bits(c.StartSec), math.Float64bits(c.DoneSec))
	}
	digestField(h, "busy", "nil=%t n=%d", r.ProcBusySec == nil, len(r.ProcBusySec))
	for k := 0; k < 256; k++ {
		if v, ok := r.ProcBusySec[machine.ProcKind(k)]; ok {
			digestFloat(h, fmt.Sprintf("busy[%d]", k), v)
		}
	}
	digestFloat(h, "energy", r.EnergyJoules)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// corpusOutcome renders one simulation outcome as a corpus field list:
// the makespan bits and the full digest, or the digest of the placement
// error.
func corpusOutcome(res *Result, err error) string {
	if err != nil {
		return fmt.Sprintf("error sha256=%x", sha256.Sum256([]byte(err.Error())))
	}
	return fmt.Sprintf("makespan=%016x sha256=%s", math.Float64bits(res.MakespanSec), resultDigest(res))
}

// TestFoldMatchesCorpus runs every corpus entry through Simulate and
// through a shared Instance — its first RunKeyed of the mapping records
// the schedule, its second folds the cached one — and requires all three
// to match the golden corpus exactly: 5 apps × 1/2/4 Shepard nodes × 7
// mappings × 4 configs. The digest covers every Result field bit for bit.
func TestFoldMatchesCorpus(t *testing.T) {
	// resultDigest lists fields by hand; a new field must be added there.
	for typ, n := range map[reflect.Type]int{
		reflect.TypeOf(Result{}): 11, reflect.TypeOf(Event{}): 7, reflect.TypeOf(CopyEvent{}): 8,
	} {
		if typ.NumField() != n {
			t.Fatalf("%s has %d fields, resultDigest covers %d: extend it", typ, typ.NumField(), n)
		}
	}
	var buf bytes.Buffer
	for _, nodes := range []int{1, 2, 4} {
		m := cluster.Shepard(nodes)
		md := m.Model()
		probs := appProblems(t, nodes)
		for ai, name := range apps.Names() {
			g := probs[name]
			inst := New(m, g)
			rng := xrand.New(0xC0A905 + uint64(nodes)*131 + uint64(ai))
			for i, mp := range corpusMappings(g, md, rng) {
				key := mp.Key()
				for _, c := range corpusConfigs {
					id := fmt.Sprintf("%s/n%d/m%d/%s", name, nodes, i, c.name)
					want := corpusOutcome(Simulate(m, g, mp, c.cfg))
					inst.dropSchedule(key)
					first, err := inst.RunKeyed(key, mp, c.cfg)
					if got := corpusOutcome(first, err); got != want {
						t.Errorf("%s: recording RunKeyed %s, Simulate %s", id, got, want)
					}
					if err == nil && inst.schedFor(key) == nil {
						t.Errorf("%s: no schedule cached after RunKeyed", id)
					}
					if got := corpusOutcome(inst.RunKeyed(key, mp, c.cfg)); got != want {
						t.Errorf("%s: cached RunKeyed %s, Simulate %s", id, got, want)
					}
					kh := sha256.Sum256([]byte(key))
					fmt.Fprintf(&buf, "%s key=%x %s\n", id, kh[:8], want)
				}
			}
		}
	}
	golden := filepath.Join("testdata", "fold_corpus.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	gotLines := strings.Split(buf.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("corpus has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	bad := 0
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			if bad++; bad <= 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d mismatching lines in all", bad)
	}
}
