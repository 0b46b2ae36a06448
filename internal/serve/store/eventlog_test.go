package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestEventLogConcurrentReaders is the blocking-reader race: many
// streaming readers attach at arbitrary times — before the first write,
// mid-stream, after Close — while one writer appends and finally closes.
// Every reader must observe the identical full byte stream. Run under
// -race in CI, this pins the log's locking discipline.
func TestEventLogConcurrentReaders(t *testing.T) {
	log := NewEventLog()
	const readers = 16
	const writes = 200

	var want bytes.Buffer
	for i := 0; i < writes; i++ {
		fmt.Fprintf(&want, "{\"seq\":%d}\n", i)
	}

	results := make([][]byte, readers)
	var wg sync.WaitGroup
	release := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if r%2 == 0 {
				<-release // half the readers attach only after writing began
			}
			var got []byte
			off := 0
			for {
				data, closed, changed := log.Next(off)
				if len(data) > 0 {
					got = append(got, data...)
					off += len(data)
					continue
				}
				if closed {
					results[r] = got
					return
				}
				<-changed
			}
		}(r)
	}

	for i := 0; i < writes; i++ {
		fmt.Fprintf(log, "{\"seq\":%d}\n", i)
		if i == writes/2 {
			close(release)
		}
	}
	log.Close()
	// Writes after Close are silent no-ops and must not reach any reader.
	log.Write([]byte("{\"late\":true}\n"))
	wg.Wait()

	for r, got := range results {
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("reader %d saw %d bytes, want %d (streams diverged)", r, len(got), want.Len())
		}
	}
	if !bytes.Equal(log.Bytes(), want.Bytes()) {
		t.Fatal("log contents differ from what was written before Close")
	}
}

// TestEventLogResumeTruncateRace models the daemon's resume path racing
// live readers: an events file with a torn tail is truncated to its
// first 20 complete lines, the surviving prefix is preloaded into a fresh
// entry's log, and a resumed sink appends the suffix — all while streaming readers attached before, during, and after
// the preload. Every reader must end up with the byte-identical
// uninterrupted stream, and the file must match it.
func TestEventLogResumeTruncateRace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.events.jsonl")

	var full bytes.Buffer
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&full, "{\"seq\":%d,\"event\":\"e\"}\n", i)
	}
	lines := bytes.SplitAfter(full.Bytes(), []byte("\n"))
	prefix := bytes.Join(lines[:20], nil)
	// A crash mid-write leaves a partial line after the complete prefix.
	if err := os.WriteFile(path, append(append([]byte(nil), prefix...), []byte(`{"seq":20,"ev`)...), 0o644); err != nil {
		t.Fatal(err)
	}

	log := NewEventLog()
	readerStreams := make([][]byte, 8)
	var wg sync.WaitGroup
	for r := range readerStreams {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var got []byte
			off := 0
			for {
				data, closed, changed := log.Next(off)
				if len(data) > 0 {
					got = append(got, data...)
					off += len(data)
					continue
				}
				if closed {
					readerStreams[r] = got
					return
				}
				<-changed
			}
		}(r)
	}

	// The resume sequence, concurrent with the blocked readers above.
	if err := os.Truncate(path, int64(len(prefix))); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, prefix) {
		t.Fatalf("truncate kept %d bytes, want the %d-byte complete prefix", len(onDisk), len(prefix))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	log.Write(prefix) // preload so mid-resume readers see the full stream
	for _, line := range lines[20:] {
		if len(line) == 0 {
			continue
		}
		if _, err := f.Write(line); err != nil {
			t.Fatal(err)
		}
		log.Write(line)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	log.Close()
	wg.Wait()

	onDisk, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, full.Bytes()) {
		t.Fatalf("resumed file is %d bytes, want the %d-byte uninterrupted stream", len(onDisk), full.Len())
	}
	for r, got := range readerStreams {
		if !bytes.Equal(got, full.Bytes()) {
			t.Fatalf("reader %d saw %d bytes, want %d", r, len(got), full.Len())
		}
	}
}
