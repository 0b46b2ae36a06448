// Event sinks: where the event stream goes.

package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
)

// Sink consumes the event stream. Implementations must preserve emission
// order; they are not required to be safe for concurrent use (searches are
// single-threaded).
type Sink interface {
	Emit(Event)
}

// jsonlBufSize is the JSONLSink write buffer; batching lines keeps the
// per-event cost of file-backed sinks off the search hot path.
const jsonlBufSize = 1 << 15

// JSONLSink writes one JSON object per event, one per line:
//
//	{"seq":3,"event":"new_best","data":{...}}
//
// The seq counter makes truncated streams detectable and keeps lines unique.
// Output is byte-deterministic: field order follows the event struct
// definitions and no wall-clock values are ever written.
//
// Writes are buffered; callers must Flush (or Close) before reading the
// underlying writer or exiting, or the buffered tail of the stream is
// lost — exactly the failure mode on an uncontrolled interrupt.
type JSONLSink struct {
	w    io.Writer
	buf  bytes.Buffer
	seq  int
	skip int
	auto bool
	err  error
}

// NewJSONLSink returns a sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// SetAutoFlush makes the sink forward every event to the underlying writer
// as soon as it is emitted, instead of batching lines in the write buffer.
// Streaming consumers — the mapd daemon's live event feeds — need each
// complete line visible immediately; batch consumers (files read after the
// search) should leave it off and keep the buffered fast path.
func (s *JSONLSink) SetAutoFlush(on bool) { s.auto = on }

// Resume makes the sink suppress the first seq events it receives while
// still counting them, so a search replayed from a checkpoint (see
// internal/checkpoint) appends only the events the original run had not
// yet emitted: prefix (the original event file, truncated to seq lines) +
// suffix equals the uninterrupted stream byte for byte. Sequence numbers
// continue from seq+1 as they would have.
func (s *JSONLSink) Resume(seq int) {
	if seq > s.skip {
		s.skip = seq
	}
}

// Seq returns the number of events received so far (written or suppressed).
func (s *JSONLSink) Seq() int { return s.seq }

// jsonlRecord is the JSONL envelope.
type jsonlRecord struct {
	Seq   int    `json:"seq"`
	Event string `json:"event"`
	Data  Event  `json:"data"`
}

// Emit buffers e as one line. The first write or marshal error is retained
// (see Err) and subsequent events are dropped.
func (s *JSONLSink) Emit(e Event) {
	s.seq++
	if s.err != nil || s.seq <= s.skip {
		return
	}
	b, err := json.Marshal(jsonlRecord{Seq: s.seq, Event: e.Kind(), Data: e})
	if err != nil {
		s.err = err
		return
	}
	s.buf.Write(b)
	s.buf.WriteByte('\n')
	if s.auto || s.buf.Len() >= jsonlBufSize {
		s.flushLocked()
	}
}

// flushLocked drains the line buffer to the underlying writer, retaining
// the first error.
func (s *JSONLSink) flushLocked() {
	if s.buf.Len() == 0 {
		return
	}
	if _, err := s.w.Write(s.buf.Bytes()); err != nil && s.err == nil {
		s.err = err
	}
	s.buf.Reset()
}

// Flush writes any buffered events to the underlying writer and returns
// the first error encountered so far.
func (s *JSONLSink) Flush() error {
	s.flushLocked()
	return s.err
}

// Close flushes buffered events, closes the underlying writer when it is
// an io.Closer, and returns the first retained error — the error that was
// previously lost when a process exited without consulting Err.
func (s *JSONLSink) Close() error {
	s.flushLocked()
	if c, ok := s.w.(io.Closer); ok {
		if err := c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Err returns the first write or marshal error encountered, if any.
func (s *JSONLSink) Err() error { return s.err }

// ResumeJSONL opens the JSONL event file at path for a resumed search to
// continue. It keeps the file's complete (newline-terminated) lines, drops
// a trailing partial line (a crash mid-write), and opens the file for
// appending, creating it when missing. It returns the open file, the
// number of kept events (the replayed events the resumed sink suppresses,
// JSONLSink.Resume) and the kept bytes themselves, so the replayed
// suffix continues the file without duplicates or gaps.
func ResumeJSONL(path string) (*os.File, int, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil, err
	}
	kept := data[:bytes.LastIndexByte(data, '\n')+1]
	if len(kept) < len(data) {
		if err := os.Truncate(path, int64(len(kept))); err != nil {
			return nil, 0, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, nil, err
	}
	return f, bytes.Count(kept, []byte("\n")), kept, nil
}

// MemorySink retains events in memory, for tests and for post-search
// exports (viz.WriteSearchTrace).
type MemorySink struct {
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit appends e.
func (s *MemorySink) Emit(e Event) { s.events = append(s.events, e) }

// Events returns the retained events in emission order.
func (s *MemorySink) Events() []Event { return s.events }

// multiSink fans events out to several sinks.
type multiSink []Sink

// Emit forwards e to every sink.
func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// Multi returns a sink that forwards every event to all of sinks, in order.
// With zero or one sink it returns the trivial equivalent.
func Multi(sinks ...Sink) Sink {
	switch len(sinks) {
	case 0:
		return nil
	case 1:
		return sinks[0]
	}
	return multiSink(sinks)
}
