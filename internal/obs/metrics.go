// Package obs is the simulator's observability layer: a metrics
// registry (counters, gauges, histograms keyed by workload/technique),
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
	"math/bits"
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
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
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

// Histogram returns the named power-of-two-bucket histogram, creating
// it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
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

// histBuckets is the bucket count of Histogram: bucket i counts
// observations v with bits.Len64(v) == i, i.e. bucket 0 holds v == 0
// and bucket i ≥ 1 holds 2^(i-1) ≤ v < 2^i.
const histBuckets = 65

// Histogram is a fixed power-of-two-bucket histogram over uint64
// observations (latencies in nanoseconds, sizes).
// It is lock-free and safe for concurrent observation.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Count returns the number of observations (0 for a nil handle).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 for a nil handle).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Bucket is one non-empty histogram bucket in a snapshot: Count
// observations with value < Le (and ≥ the previous bucket's Le).
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// Metric is one serialized registry entry.
type Metric struct {
	Name    string   `json:"name"`
	Kind    string   `json:"kind"` // "counter", "gauge" or "histogram"
	Value   uint64   `json:"value,omitempty"`
	Count   uint64   `json:"count,omitempty"`
	Sum     uint64   `json:"sum,omitempty"`
	Mean    float64  `json:"mean,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
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
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, name := range sortedKeys(r.counters) {
		out = append(out, Metric{Name: name, Kind: "counter", Value: r.counters[name].Value()})
	}
	for _, name := range sortedKeys(r.gauges) {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: r.gauges[name].Value()})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		m := Metric{Name: name, Kind: "histogram", Count: h.Count(), Sum: h.Sum(), Mean: h.Mean()}
		for i := 0; i < histBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				le := uint64(1) << uint(i) // exclusive upper bound: bits.Len64(v) == i → v < 2^i
				if i == 0 {
					le = 1
				}
				m.Buckets = append(m.Buckets, Bucket{Le: le, Count: n})
			}
		}
		out = append(out, m)
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
