package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one traced interval. Spans form a tree through parent (an
// index into the recorder, -1 for the root); spans of one cell or job
// share id. A folded span stands for count calls of one layer inside
// its parent and has no start of its own: it is drawn from the
// parent's start with the calls' total duration.
type span struct {
	name   string
	id     string
	tid    int
	parent int
	start  time.Duration // since the recorder's origin
	dur    time.Duration
	count  int64
	folded bool
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run stays free of tracing
// work beyond a nil check. Only the run's main goroutine records: serve
// jobs are recorded after their round, not by the client goroutines.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// add records s and returns its index for children to name as parent.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// since converts a wall-clock instant to the recorder's time base.
func (r *recorder) since(t time.Time) time.Duration { return t.Sub(r.origin) }

// finish sets the duration of an open span.
func (r *recorder) finish(i int, end time.Time) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].dur = r.since(end) - r.spans[i].start
}

// selfTimes returns each span's duration minus its children's.
func (r *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.dur
		if s.parent >= 0 {
			self[s.parent] -= s.dur
		}
	}
	return self
}

// writeChrome writes the spans as Chrome-trace JSON (complete "X"
// events; timestamps in microseconds).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := r.selfTimes()
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		start := s.start
		if s.folded && s.parent >= 0 {
			start = r.spans[s.parent].start
		}
		args := map[string]any{"self_us": us(self[i])}
		if s.id != "" {
			args["id"] = s.id
		}
		if s.count > 0 {
			args["count"] = s.count
		}
		if s.folded {
			args["folded"] = true
		}
		events[i] = event{Name: s.name, Ph: "X", Ts: us(start), Dur: us(s.dur), Pid: 1, Tid: s.tid, Args: args}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
