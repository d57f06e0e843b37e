// Package obs is the simulator's observability layer: a metrics
// registry (counters and gauges keyed by workload/technique),
// a cycle-level event-trace sink in Chrome-trace/Perfetto JSON, and the
// profiling helpers the CLIs expose behind -pprof.
//
// The layer is strictly read-only with respect to simulation state and
// zero-cost when disabled: every handle type has nil-safe methods, so
// an uninstrumented run pays one nil check per hook and produces
// bit-identical simulation output to a build without the layer. The
// wplint statpath analyzer enforces that metric handles are only
// obtained from a Registry (or a View built over one) — instrumented
// packages never declare their own counter storage, keeping the metric
// catalog in one auditable place.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds the named metrics of one process (typically shared by
// every run of a sweep; series are distinguished by label suffixes, see
// Key). A nil *Registry is a valid, fully disabled registry: its getters
// return nil handles whose methods are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Key renders a labeled series name, "name{technique=conv,workload=gap/bfs}".
// Empty labels are omitted; a name with no labels is returned verbatim.
// Label order is fixed (technique before workload) so the same series
// never splits over key spellings.
func Key(name, workload, technique string) string {
	var labels []string
	if technique != "" {
		labels = append(labels, "technique="+technique)
	}
	if workload != "" {
		labels = append(labels, "workload="+workload)
	}
	if len(labels) == 0 {
		return name
	}
	return name + "{" + strings.Join(labels, ",") + "}"
}

// Counter returns the named monotonic counter, creating it on first
// use. Nil registry → nil handle (whose methods are no-ops).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named last-value gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Counter is a monotonically increasing uint64. The zero value is
// ready; a nil *Counter is a valid disabled handle.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins instantaneous measurement.
type Gauge struct {
	v atomic.Uint64
}

// Set records the current value.
func (g *Gauge) Set(v uint64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last recorded value (0 for a nil handle).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Metric is one serialized registry entry.
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"` // "counter" or "gauge"
	Value uint64 `json:"value,omitempty"`
}

// Snapshot returns every metric sorted by name — a deterministic
// rendering for reports and tests. Concurrent observers may race
// individual atomic reads; within one metric each field is coherent.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges))
	for _, name := range sortedKeys(r.counters) {
		out = append(out, Metric{Name: name, Kind: "counter", Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: r.gauges[name].Value()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// sortedKeys returns a map's keys in sorted order, the deterministic
// iteration idiom the wplint determinism analyzer requires.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for name := range m {
		keys = append(keys, name)
	}
	sort.Strings(keys)
	return keys
}

// WriteJSON writes the snapshot as indented JSON (the -metrics-out
// format of the CLIs).
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	if snap == nil {
		snap = []Metric{}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshaling metrics: %w", err)
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
