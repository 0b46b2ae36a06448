// Fuzzing for checkpoint loading: whatever bytes land in a snapshot file —
// torn writes, version skew, hostile edits — Load must either return a
// valid snapshot or a clean error, never panic. The seed corpus starts
// from snapshots a real short search wrote, plus the standard corruption
// shapes (truncation, bit flips, version skew, junk).
//
// This lives in an external test package so it can drive internal/driver
// (which imports checkpoint) to produce genuine snapshots.
package checkpoint_test

import (
	"bytes"
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

func FuzzLoadCheckpoint(f *testing.F) {
	real := realSnapshot(f)
	f.Add(real)
	f.Add(real[:len(real)/2])                                                     // truncated mid-write
	f.Add(bytes.Replace(real, []byte(`"version":1`), []byte(`"version":999`), 1)) // version skew
	f.Add(bytes.Replace(real, []byte(`{`), []byte(`[`), 1))                       // type confusion
	f.Add([]byte(``))                                                             // empty file
	f.Add([]byte(`{}`))                                                           // no fields at all
	f.Add([]byte(`{"version":1,"evals":[{"key":"x","runs":[{"ok":true}]}]}`))
	f.Add([]byte(`nonsense`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := checkpoint.Load(path)
		if err != nil {
			if snap != nil {
				t.Fatal("Load returned both a snapshot and an error")
			}
			return
		}
		// Whatever loads must be internally coherent and round-trip.
		if snap.Version != checkpoint.Version {
			t.Fatalf("accepted snapshot with version %d", snap.Version)
		}
		snap.Fingerprint() // must not panic on arbitrary field values
		out := filepath.Join(t.TempDir(), "roundtrip.ckpt")
		if err := snap.Save(out); err != nil {
			t.Fatalf("loaded snapshot does not re-save: %v", err)
		}
		again, err := checkpoint.Load(out)
		if err != nil {
			t.Fatalf("re-saved snapshot does not re-load: %v", err)
		}
		if again.Fingerprint() != snap.Fingerprint() {
			t.Fatal("fingerprint changed across a save/load round trip")
		}
	})
}
