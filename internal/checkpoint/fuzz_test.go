// Fuzzing for checkpoint loading: whatever bytes land in a snapshot file —
// torn writes, version skew, hostile edits — Load must either return a
// valid snapshot or a clean error, never panic. The fuzzer drives Decode,
// Load's byte-level half, in memory; a unit test takes the seed corpus
// through the files. The seed corpus starts
// from snapshots a real short search wrote, plus the standard corruption
// shapes (truncation, bit flips, version skew, junk).
//
// This lives in an external test package so it can drive internal/driver
// (which imports checkpoint) to produce genuine snapshots.
package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"automap/internal/checkpoint"
	"automap/internal/cluster"
	"automap/internal/driver"
	"automap/internal/machine"
	"automap/internal/search"
	"automap/internal/taskir"
)

// fuzzGraph is a tiny two-task program: big enough for a search to commit
// several distinct measurements, small enough to run in milliseconds.
func fuzzGraph() *taskir.Graph {
	g := taskir.NewGraph("fuzz")
	both := map[machine.ProcKind]taskir.Variant{
		machine.CPU: {Efficiency: 1, WorkPerPoint: 1e5},
		machine.GPU: {Efficiency: 1, WorkPerPoint: 1e5},
	}
	c1 := g.AddCollection(taskir.Collection{Name: "c1", Space: "s1", Lo: 0, Hi: 1 << 18, Partitioned: true})
	c2 := g.AddCollection(taskir.Collection{Name: "c2", Space: "s2", Lo: 0, Hi: 1 << 16})
	g.AddTask(taskir.GroupTask{Name: "a", Points: 4, Variants: both, Args: []taskir.Arg{
		{Collection: c1.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 14},
	}})
	g.AddTask(taskir.GroupTask{Name: "b", Points: 4, Variants: both, Args: []taskir.Arg{
		{Collection: c1.ID, Privilege: taskir.ReadOnly, BytesPerPoint: 1 << 14},
		{Collection: c2.ID, Privilege: taskir.ReadWrite, BytesPerPoint: 1 << 14},
	}})
	g.Iterations = 2
	return g
}

// realSnapshot runs a short checkpointing search and returns the bytes the
// driver actually persisted.
func realSnapshot(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.ckpt")
	opts := driver.DefaultOptions()
	opts.Repeats = 2
	opts.FinalRepeats = 2
	opts.CheckpointPath = path
	opts.CheckpointEvery = 3
	if _, err := driver.Search(cluster.Shepard(1), fuzzGraph(), search.NewCCD(), opts, search.Budget{MaxSuggestions: 20}); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// fuzzSeeds returns the seed corpus: a snapshot a real search wrote, and
// the standard corruption shapes of one.
func fuzzSeeds(tb testing.TB) [][]byte {
	real := realSnapshot(tb)
	return [][]byte{
		real,
		real[:len(real)/2], // truncated mid-write
		bytes.Replace(real, []byte(`"version":1`), []byte(`"version":999`), 1), // version skew
		bytes.Replace(real, []byte(`{`), []byte(`[`), 1),                       // type confusion
		[]byte(``),   // empty file
		[]byte(`{}`), // no fields at all
		[]byte(`{"version":1,"evals":[{"key":"x","runs":[{"ok":true}]}]}`),
		[]byte(`nonsense`),
	}
}

// requireRoundTrip checks what Decode accepted: it carries this build's
// version, and encoding it again (as Save does) decodes to a snapshot with
// the same fingerprint.
func requireRoundTrip(t *testing.T, snap *checkpoint.Snapshot, encode func(*checkpoint.Snapshot) ([]byte, error)) {
	t.Helper()
	if snap.Version != checkpoint.Version {
		t.Fatalf("accepted snapshot with version %d", snap.Version)
	}
	fp := snap.Fingerprint() // must not panic on arbitrary field values
	data, err := encode(snap)
	if err != nil {
		t.Fatalf("accepted snapshot does not re-encode: %v", err)
	}
	again, err := checkpoint.Decode(data)
	if err != nil {
		t.Fatalf("re-encoded snapshot does not decode: %v", err)
	}
	if again.Fingerprint() != fp {
		t.Fatal("fingerprint changed across a round trip")
	}
}

// FuzzLoadCheckpoint fuzzes the byte-level half of Load, in memory: Decode
// returns a snapshot or an error, never both and never a panic, and what
// it accepts round-trips through json.Marshal, the encoding Save writes.
// TestSaveLoadSeedCorpus takes the seed corpus through the files.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, data := range fuzzSeeds(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := checkpoint.Decode(data)
		if err != nil {
			if snap != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			return
		}
		requireRoundTrip(t, snap, func(s *checkpoint.Snapshot) ([]byte, error) { return json.Marshal(s) })
	})
}

// TestSaveLoadSeedCorpus is FuzzLoadCheckpoint's property over files: each
// seed written to a file either fails Load cleanly or loads a snapshot
// that Save writes and Load reads back with its fingerprint.
func TestSaveLoadSeedCorpus(t *testing.T) {
	dir := t.TempDir()
	for i, data := range fuzzSeeds(t) {
		path := filepath.Join(dir, fmt.Sprintf("seed%d.ckpt", i))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Load(path)
		if err != nil {
			if snap != nil {
				t.Fatalf("seed %d: Load returned both a snapshot and an error", i)
			}
			continue
		}
		requireRoundTrip(t, snap, func(s *checkpoint.Snapshot) ([]byte, error) {
			out := filepath.Join(dir, fmt.Sprintf("roundtrip%d.ckpt", i))
			if err := s.Save(out); err != nil {
				return nil, err
			}
			return os.ReadFile(out)
		})
	}
}
