package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestStageAdoptableOnceVisible: a submit that lands the moment a staged
// bundle's file becomes visible, before stage has returned, adopts it.
// The hook holds stage right after its write, which is where a submit
// used to find the file on disk but nothing to adopt and start a fresh
// search instead of resuming.
func TestStageAdoptableOnceVisible(t *testing.T) {
	rep, err := NewReplica(ReplicaConfig{
		Name:  "r0",
		Peers: map[string]string{"r0": "http://127.0.0.1:1"},
		Dir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		rep.Server().Drain()
		rep.Close()
	}()
	b := &Bundle{
		Key:        "00112233445566778899aabb",
		Kind:       KindCheckpoint,
		Request:    json.RawMessage(`{"app":"stencil"}`),
		Checkpoint: validCheckpointBytes(t),
		Events:     []byte("{\"seq\":1}\n{\"seq\":2}\n"),
	}

	hooked := 0
	rep.afterStageWrite = func(key string) {
		hooked++
		if _, err := os.Stat(rep.stagedPath(key)); err != nil {
			t.Errorf("hook ran before the staged file was visible: %v", err)
		}
		rep.adopt(key) // what reclaim does for an unknown fingerprint
	}
	if err := rep.stage(b); err != nil {
		t.Fatal(err)
	}
	if hooked != 1 {
		t.Fatalf("hook ran %d times, want 1", hooked)
	}

	st := rep.Server().Store()
	if got, err := os.ReadFile(st.CheckpointPath(b.Key)); err != nil || !bytes.Equal(got, b.Checkpoint) {
		t.Fatalf("checkpoint not adopted into the store (err %v)", err)
	}
	if got, err := os.ReadFile(st.EventsPath(b.Key)); err != nil || !bytes.Equal(got, b.Events) {
		t.Fatalf("event prefix not adopted into the store (err %v)", err)
	}
	if n := rep.mReclaimed.Value(); n != 1 {
		t.Fatalf("fleet.reclaimed = %d, want 1", n)
	}
	if _, err := os.Stat(rep.stagedPath(b.Key)); !os.IsNotExist(err) {
		t.Errorf("staged file left behind after adoption: %v", err)
	}
	// Exactly once: nothing is left to adopt a second time.
	rep.adopt(b.Key)
	if n := rep.mReclaimed.Value(); n != 1 {
		t.Errorf("fleet.reclaimed = %d after a second adopt, want 1", n)
	}
}
