package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilHandlesAreInert: the zero-cost-when-disabled contract — every
// method of every handle type must be a safe no-op on nil, so
// uninstrumented hot paths cost one nil check.
func TestNilHandlesAreInert(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil {
		t.Fatal("nil registry returned live handles")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot not nil")
	}

	var c *Counter
	c.Inc()
	c.Add(7)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(3)
	if g.Value() != 0 {
		t.Error("nil gauge has a value")
	}

	var s *TraceSink
	tr := s.Track("run")
	if tr != nil {
		t.Fatal("nil sink returned a live track")
	}
	tr.Span("a", 0, 1)
	tr.Instant("b", 0)
	if err := s.Close(); err != nil {
		t.Errorf("nil sink Close: %v", err)
	}

	var v *View
	v.FetchStall(1, 2, 3, false)
	v.Mispredict(1, 2, 3, 4, 5)
	v.Convergence(1, 2, 3)
	v.Serialize(1, 2)
}

func TestKey(t *testing.T) {
	cases := []struct {
		name, wl, tech, want string
	}{
		{"m", "", "", "m"},
		{"m", "gap/bfs", "", "m{workload=gap/bfs}"},
		{"m", "", "conv", "m{technique=conv}"},
		{"m", "gap/bfs", "conv", "m{technique=conv,workload=gap/bfs}"},
	}
	for _, c := range cases {
		if got := Key(c.name, c.wl, c.tech); got != c.want {
			t.Errorf("Key(%q,%q,%q) = %q, want %q", c.name, c.wl, c.tech, got, c.want)
		}
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name resolved to different counters")
	}
	r.Counter("a").Add(3)
	r.Counter("a").Inc()
	r.Gauge("g").Set(11)

	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2", len(snap))
	}
	// Sorted by name: a, g.
	if snap[0].Name != "a" || snap[0].Kind != "counter" || snap[0].Value != 4 {
		t.Errorf("counter snapshot = %+v", snap[0])
	}
	if snap[1].Name != "g" || snap[1].Kind != "gauge" || snap[1].Value != 11 {
		t.Errorf("gauge snapshot = %+v", snap[1])
	}
}

func TestWriteJSONValid(t *testing.T) {
	r := NewRegistry()
	r.Counter(Key("runs_total", "gap/bfs", "conv")).Inc()
	r.Gauge("lat").Set(100)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap []Metric
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(snap) != 2 {
		t.Errorf("round-tripped %d metrics, want 2", len(snap))
	}
}

// TestTraceSinkValidJSON: the sink must emit a well-formed Chrome-trace
// document with process metadata, spans and instants.
func TestTraceSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	tr := s.Track(`gap/bfs "conv"`) // name requiring JSON escaping
	tr.Span("mispredict", 100, 25, Arg{"pc", 0x1234}, Arg{"wp_len", 17})
	tr.Instant("convergence", 110, Arg{"dist", 4})
	tr2 := s.Track("gap/pr conv")
	tr2.Span("fetch-stall", 7, 3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	// 2 metadata + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("trace has %d events, want 5", len(doc.TraceEvents))
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["M"] != 2 || phases["X"] != 2 || phases["i"] != 1 {
		t.Errorf("phase histogram = %v", phases)
	}
	// Tracks get distinct pids; the span carries its args.
	if doc.TraceEvents[1]["pid"] == doc.TraceEvents[4]["pid"] {
		t.Error("distinct tracks share a pid")
	}
	args := doc.TraceEvents[1]["args"].(map[string]any)
	if args["pc"].(float64) != float64(0x1234) || args["wp_len"].(float64) != 17 {
		t.Errorf("span args = %v", args)
	}
	if !strings.Contains(buf.String(), `gap/bfs \"conv\"`) {
		t.Error("track name not escaped into metadata")
	}
}

// TestTraceSinkConcurrent: emits from many goroutines must interleave
// into valid JSON (the batch engine's workers share one sink).
func TestTraceSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	s := NewTraceSink(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr := s.Track("worker")
			for i := 0; i < 50; i++ {
				tr.Span("op", uint64(i), 1, Arg{"g", uint64(g)})
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("concurrent trace is invalid JSON (%d bytes)", buf.Len())
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared").Inc()
				r.Gauge("g").Set(uint64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
}
