package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// emitAll pushes one event of every kind through s.
func emitAll(s Sink) {
	s.Emit(SearchStarted{Algorithm: "AM-CCD", Program: "stencil", Machine: "shepard", Tasks: 2, Collections: 7, Seed: 1})
	s.Emit(RotationStarted{Rotation: 1, ConstraintEdges: 4})
	s.Emit(Suggested{Coord: "stencil.arg0", Move: "proc=GPU mem=FB", Candidate: "k1", Source: "AM-CCD"})
	s.Emit(Evaluated{Candidate: "k1", MeanSec: 0.5, StartSec: 0, EndSec: 3.5})
	s.Emit(NewBest{Candidate: "k1", BestSec: 0.5, SearchSec: 3.5})
	s.Emit(Evaluated{Candidate: "k2", Failed: true, Pruned: true, StartSec: 3.5, EndSec: 3.5})
	s.Emit(ConstraintDropped{Rotation: 1, CollA: 2, CollB: 5, WeightBytes: 4096})
	s.Emit(SearchFinished{StopReason: "converged", BestSec: 0.5, SearchSec: 3.5, Suggested: 2, Evaluated: 1})
}

func TestJSONLSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	emitAll(s)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8:\n%s", len(lines), buf.String())
	}
	wantKinds := []string{
		"search_started", "rotation_started", "suggested", "evaluated",
		"new_best", "evaluated", "constraint_dropped", "search_finished",
	}
	for i, line := range lines {
		var rec struct {
			Seq   int             `json:"seq"`
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d does not parse: %v\n%s", i+1, err, line)
		}
		if rec.Seq != i+1 {
			t.Errorf("line %d: seq = %d", i+1, rec.Seq)
		}
		if rec.Event != wantKinds[i] {
			t.Errorf("line %d: event = %q, want %q", i+1, rec.Event, wantKinds[i])
		}
		if len(rec.Data) == 0 {
			t.Errorf("line %d: empty data", i+1)
		}
	}

	// The failed evaluation must omit mean_sec (infinite cost is encoded
	// as absence, not as an unparseable Inf).
	if strings.Contains(lines[5], "mean_sec") {
		t.Errorf("failed evaluation should omit mean_sec: %s", lines[5])
	}
	if !strings.Contains(lines[5], `"pruned":true`) {
		t.Errorf("pruned flag missing: %s", lines[5])
	}
}

func TestJSONLSinkDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	sa, sb := NewJSONLSink(&a), NewJSONLSink(&b)
	emitAll(sa)
	emitAll(sb)
	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same events produced different bytes:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestJSONLSinkBuffersUntilFlush pins the failure mode the Close method
// exists for: without a flush, the tail of the stream never reaches the
// underlying writer.
func TestJSONLSinkBuffersUntilFlush(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.Emit(NewBest{Candidate: "k", BestSec: 1})
	if buf.Len() != 0 {
		t.Fatalf("short stream reached writer before Flush (%d bytes)", buf.Len())
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("Flush wrote nothing")
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJSONLSinkCloseSurfacesError(t *testing.T) {
	s := NewJSONLSink(errWriter{})
	s.Emit(NewBest{Candidate: "k", BestSec: 1})
	if err := s.Close(); err == nil {
		t.Fatal("Close swallowed the write error")
	}
	if err := s.Err(); err == nil {
		t.Fatal("Err lost the write error")
	}
}

func TestJSONLSinkResumeSkipsPrefix(t *testing.T) {
	// Full stream.
	var full bytes.Buffer
	sf := NewJSONLSink(&full)
	emitAll(sf)
	sf.Close()

	// Interrupted prefix: first 3 events only.
	var pre bytes.Buffer
	sp := NewJSONLSink(&pre)
	sp.Emit(SearchStarted{Algorithm: "AM-CCD", Program: "stencil", Machine: "shepard", Tasks: 2, Collections: 7, Seed: 1})
	sp.Emit(RotationStarted{Rotation: 1, ConstraintEdges: 4})
	sp.Emit(Suggested{Coord: "stencil.arg0", Move: "proc=GPU mem=FB", Candidate: "k1", Source: "AM-CCD"})
	sp.Close()
	if sp.Seq() != 3 {
		t.Fatalf("Seq = %d, want 3", sp.Seq())
	}

	// Resumed suffix: replay the whole stream, suppressing the prefix.
	var suf bytes.Buffer
	sr := NewJSONLSink(&suf)
	sr.Resume(3)
	emitAll(sr)
	sr.Close()

	got := append(pre.Bytes(), suf.Bytes()...)
	if !bytes.Equal(got, full.Bytes()) {
		t.Fatalf("prefix+suffix differs from uninterrupted stream:\n%s\nvs\n%s", got, full.Bytes())
	}
}

// TestResumeJSONL continues an event file with a torn tail: the count and
// the kept bytes exclude the partial line, and appends continue after the
// last complete line. A file holding only a torn line is emptied, and a
// missing file resumes empty and is created.
func TestResumeJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	emitAll(s)
	s.Close()
	complete := buf.Bytes()
	torn := append(slices.Clone(complete), `{"seq":99,"ev`...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f, events, kept, err := ResumeJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Count(complete, []byte("\n")); events != want || !bytes.Equal(kept, complete) {
		t.Fatalf("resumed %d events (%d bytes), want %d (%d bytes)", events, len(kept), want, len(complete))
	}
	if _, err := f.WriteString("{\"seq\":7}\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(slices.Clone(complete), "{\"seq\":7}\n"...); !bytes.Equal(data, want) {
		t.Fatalf("continued file:\n%s\nwant:\n%s", data, want)
	}

	// A file holding only a torn line resumes empty: nothing of it stays
	// in front of the replayed stream.
	if err := os.WriteFile(path, []byte(`{"seq":1,"ev`), 0o644); err != nil {
		t.Fatal(err)
	}
	f, events, kept, err = ResumeJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if fi, err := os.Stat(path); err != nil || events != 0 || len(kept) != 0 || fi.Size() != 0 {
		t.Fatalf("torn-only file resumed %d events, %d bytes kept, stat %v %v", events, len(kept), fi, err)
	}

	missing := filepath.Join(t.TempDir(), "none.jsonl")
	f, events, kept, err = ResumeJSONL(missing)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if events != 0 || len(kept) != 0 {
		t.Fatalf("missing file resumed %d events, %d bytes", events, len(kept))
	}
	if _, err := os.Stat(missing); err != nil {
		t.Fatalf("missing file not created: %v", err)
	}
}

func TestObserverEventSeq(t *testing.T) {
	var o *Observer
	if o.EventSeq() != 0 {
		t.Error("nil observer EventSeq != 0")
	}
	o = &Observer{} // no sink: events drop, seq stays 0
	o.Emit(NewBest{})
	if o.EventSeq() != 0 {
		t.Errorf("sinkless observer counted %d events", o.EventSeq())
	}
	o = &Observer{Sink: NewMemorySink()}
	emitAll(o.Sink)
	if o.EventSeq() != 0 {
		t.Error("direct sink emission should not advance the observer seq")
	}
	o.Emit(NewBest{})
	o.Emit(SearchFinished{})
	if o.EventSeq() != 2 {
		t.Errorf("EventSeq = %d, want 2", o.EventSeq())
	}
}

func TestMemoryAndMultiSink(t *testing.T) {
	mem := NewMemorySink()
	var buf bytes.Buffer
	js := NewJSONLSink(&buf)
	multi := Multi(mem, js)
	emitAll(multi)
	if err := js.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(mem.Events()) != 8 {
		t.Fatalf("memory sink retained %d events, want 8", len(mem.Events()))
	}
	if got := strings.Count(buf.String(), "\n"); got != 8 {
		t.Fatalf("jsonl sink wrote %d lines, want 8", got)
	}
	if mem.Events()[0].Kind() != "search_started" {
		t.Errorf("first event kind = %q", mem.Events()[0].Kind())
	}

	// Multi with one sink is the sink itself; with none, nil.
	if Multi(mem) != Sink(mem) {
		t.Error("Multi(one) should return the sink unchanged")
	}
	if Multi() != nil {
		t.Error("Multi() should be nil")
	}
}

func TestNilObserverIsInert(t *testing.T) {
	var o *Observer
	if o.Enabled() {
		t.Error("nil observer reports Enabled")
	}
	// None of these may panic, and the instruments must be usable no-ops.
	o.Emit(NewBest{})
	o.Counter("x").Add(1)
	o.Gauge("y").Set(2)
	o.Gauge("y").Add(2)
	o.Histogram("z", []float64{1}).Observe(0.5)
	if o.Counter("x").Value() != 0 || o.Gauge("y").Value() != 0 || o.Histogram("z", nil).Count() != 0 {
		t.Error("nil instruments should read zero")
	}

	// Observer with a registry but no sink: metrics work, events drop.
	o = &Observer{Metrics: NewRegistry()}
	if o.Enabled() {
		t.Error("observer without sink reports Enabled")
	}
	o.Emit(NewBest{})
	o.Counter("x").Add(3)
	if o.Counter("x").Value() != 3 {
		t.Errorf("counter = %d, want 3", o.Counter("x").Value())
	}
}
