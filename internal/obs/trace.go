package obs

import (
	"fmt"
	"io"
	"strconv"
	"sync"
)

// TraceSink serializes cycle-level simulation events into the Chrome
// trace event format (the JSON Perfetto and chrome://tracing load).
// Each simulation run registers a Track — rendered as one "process"
// named after the run's workload/technique — and emits spans, instants
// and counter series onto it with simulated cycles as timestamps (the
// viewer's "µs" unit reads as cycles).
//
// A nil *TraceSink is a valid disabled sink: Track returns a nil
// *Track, whose emit methods are no-ops. The sink is safe for
// concurrent use from batch workers.
type TraceSink struct {
	mu     sync.Mutex
	w      io.Writer
	events int
	tracks int64
	err    error
}

// NewTraceSink starts a trace stream on w. Close must be called to
// terminate the JSON document.
func NewTraceSink(w io.Writer) *TraceSink {
	t := &TraceSink{w: w}
	t.write(`{"displayTimeUnit":"ns","traceEvents":[`)
	return t
}

// write appends raw JSON text; callers hold mu (or are the constructor).
func (t *TraceSink) write(s string) {
	if t.err != nil {
		return
	}
	_, t.err = io.WriteString(t.w, s)
}

// event emits one pre-rendered event object, managing commas.
func (t *TraceSink) event(body string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.events > 0 {
		t.write(",\n")
	}
	t.events++
	t.write(body)
}

// Close terminates the JSON document and returns the first write error.
func (t *TraceSink) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.write("]}\n")
	return t.err
}

// Err returns the first write error (nil for a nil sink).
func (t *TraceSink) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Track registers one run's event track, shown as a process with the
// given name. Nil sink → nil track (all emits no-ops).
func (t *TraceSink) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.tracks++
	pid := t.tracks
	t.mu.Unlock()
	t.event(fmt.Sprintf(
		`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`,
		pid, strconv.Quote(name)))
	return &Track{sink: t, pid: pid}
}

// Track is one run's lane in the trace. The zero tid is used for every
// event: a run is single-threaded.
type Track struct {
	sink *TraceSink
	pid  int64
}

// Arg is one numeric event argument (PCs render in decimal; the viewer
// shows them raw).
type Arg struct {
	Key string
	Val uint64
}

func renderArgs(args []Arg) string {
	if len(args) == 0 {
		return "{}"
	}
	s := "{"
	for i, a := range args {
		if i > 0 {
			s += ","
		}
		s += strconv.Quote(a.Key) + ":" + strconv.FormatUint(a.Val, 10)
	}
	return s + "}"
}

// Span emits a complete-duration event: [ts, ts+dur) in cycles.
func (tr *Track) Span(name string, ts, dur uint64, args ...Arg) {
	if tr == nil {
		return
	}
	tr.sink.event(fmt.Sprintf(
		`{"name":%s,"ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":0,"args":%s}`,
		strconv.Quote(name), ts, dur, tr.pid, renderArgs(args)))
}

// Instant emits a point event at cycle ts.
func (tr *Track) Instant(name string, ts uint64, args ...Arg) {
	if tr == nil {
		return
	}
	tr.sink.event(fmt.Sprintf(
		`{"name":%s,"ph":"i","s":"t","ts":%d,"pid":%d,"tid":0,"args":%s}`,
		strconv.Quote(name), ts, tr.pid, renderArgs(args)))
}
