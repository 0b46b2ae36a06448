package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestStartEndSpan(t *testing.T) {
	sink := NewMemorySink()
	o := &Observer{Sink: sink, Trace: "req-00000001"}

	root := o.StartSpan(0, "search", "detail", 1.5)
	child := o.StartSpan(root, "rotation", "", 2.0)
	o.EndSpan(child, 3.0)
	o.EndSpan(root, 4.0)

	if root != 1 || child != 2 {
		t.Fatalf("span IDs = %d, %d; want sequential 1, 2", root, child)
	}
	events := sink.Events()
	if len(events) != 4 {
		t.Fatalf("%d events, want 4", len(events))
	}
	s0, ok := events[0].(SpanStart)
	if !ok || s0.ID != 1 || s0.Parent != 0 || s0.Name != "search" ||
		s0.Detail != "detail" || s0.Trace != "req-00000001" || s0.StartSec != 1.5 {
		t.Errorf("root SpanStart = %+v", events[0])
	}
	if s0.Kind() != "span_start" {
		t.Errorf("SpanStart.Kind() = %q", s0.Kind())
	}
	s1, ok := events[1].(SpanStart)
	if !ok || s1.ID != 2 || s1.Parent != 1 || s1.Name != "rotation" {
		t.Errorf("child SpanStart = %+v", events[1])
	}
	e0, ok := events[2].(SpanEnd)
	if !ok || e0.ID != 2 || e0.EndSec != 3.0 {
		t.Errorf("child SpanEnd = %+v", events[2])
	}
	if e0.Kind() != "span_end" {
		t.Errorf("SpanEnd.Kind() = %q", e0.Kind())
	}
	e1, ok := events[3].(SpanEnd)
	if !ok || e1.ID != 1 || e1.EndSec != 4.0 {
		t.Errorf("root SpanEnd = %+v", events[3])
	}
}

func TestSpanEndJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.SetAutoFlush(true)
	o := &Observer{Sink: sink}
	id := o.StartSpan(0, "rotation", "", 0.25)
	o.EndSpan(id, 0.5)

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d JSONL lines, want 2: %q", len(lines), buf.String())
	}
	if want := `{"seq":2,"event":"span_end","data":{"id":1,"end_sec":0.5}}`; lines[1] != want {
		t.Errorf("span_end line = %s, want %s", lines[1], want)
	}
}

func TestSpanDisabledObserver(t *testing.T) {
	// A nil observer and a sinkless observer both return the "no span"
	// ID 0, and EndSpan(0) is a silent no-op: instrumented code never
	// branches on whether telemetry is attached.
	var nilObs *Observer
	if id := nilObs.StartSpan(0, "x", "", 0); id != 0 {
		t.Errorf("nil observer StartSpan = %d, want 0", id)
	}
	nilObs.EndSpan(0, 1)

	o := &Observer{}
	if id := o.StartSpan(0, "x", "", 0); id != 0 {
		t.Errorf("sinkless observer StartSpan = %d, want 0", id)
	}
	o.EndSpan(0, 1)
}

func TestSpanJSONL(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.SetAutoFlush(true)
	o := &Observer{Sink: sink}
	id := o.StartSpan(0, "search", "", 0.25)
	o.EndSpan(id, 0.5)

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d JSONL lines, want 2: %q", len(lines), buf.String())
	}
	if want := `{"seq":1,"event":"span_start","data":{"id":1,"name":"search","start_sec":0.25}}`; lines[0] != want {
		t.Errorf("span_start line = %s, want %s", lines[0], want)
	}
	if want := `{"seq":2,"event":"span_end","data":{"id":1,"end_sec":0.5}}`; lines[1] != want {
		t.Errorf("span_end line = %s, want %s", lines[1], want)
	}
}

func TestWallClock(t *testing.T) {
	clock := WallClock()
	a := clock()
	b := clock()
	if a < 0 || b < a {
		t.Errorf("WallClock not monotone non-negative: %v then %v", a, b)
	}
}
