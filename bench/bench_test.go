package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json, which declares this
// benchmark to whoever runs it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatalf("parsing BENCHMARK.json: %v", err)
	}
	if len(bm.EndToEnd) > 16 || len(bm.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; at most 16 and 128", len(bm.EndToEnd), len(bm.PerLayer))
	}
	if len(bm.Workloads) != len(plans) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bm.Workloads), len(plans))
	}
	for i, w := range bm.Workloads {
		if w.Name != plans[i].name || w.Why != plans[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, plans[i].name, plans[i].why)
		}
	}
	e2e := endToEnd()
	if len(bm.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bm.EndToEnd), len(e2e))
	}
	for i, m := range bm.EndToEnd {
		d := e2e[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
	pl := perLayer()
	if len(bm.PerLayer) != len(pl) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bm.PerLayer), len(pl))
	}
	for i, m := range bm.PerLayer {
		d := pl[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
}

// tiny shrinks a plan to a few thousand instructions per cell and one
// cycle of serve epochs.
func tiny(p plan) plan {
	p.sim.params.N = 512
	p.sim.params.Scale = 0.02
	p.sim.maxInsts = 5_000
	p.sim.minReps = 2
	p.serve.params.N = 256
	p.serve.params.Scale = 0.02
	p.serve.maxInsts = 2_000
	p.serve.epochs = len(p.serve.benches)
	p.serve.burstRounds = 3
	return p
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks what a full run promises: every declared metric is printed with
// its unit, nothing fails (which covers the digest comparisons between
// reps and between the traced and untraced passes, and the branch
// replay's cross-check against the core), and the traced layer shares
// of each technique add up to the whole session.
func TestSmoke(t *testing.T) {
	for _, p := range plans {
		for _, traced := range []bool{false, true} {
			name := p.name + "/untraced"
			decls := endToEnd()
			if traced {
				name = p.name + "/traced"
				decls = perLayer()
			}
			t.Run(name, func(t *testing.T) {
				rec, err := measure(options{plan: tiny(p), seed: 1, seconds: 1, traced: traced, workDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				if !rec.Correct || rec.Failed != 0 || rec.FailFrac != 0 {
					t.Fatalf("%d of %d failed: %v", rec.Failed, rec.Attempted, rec.Failures)
				}
				var out bytes.Buffer
				if err := report(&out, rec, decls); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if len(res.Metrics) != len(decls) {
					t.Errorf("printed %d metrics, declared %d", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
						t.Errorf("metric %s printed as %+v, want unit %s", d.name, m, d.unit)
					}
				}
				if !traced {
					return
				}
				for _, k := range techniques {
					n := k.String()
					sum := res.Metrics["frontend.share."+n].Value + res.Metrics["core.share."+n].Value +
						res.Metrics["wrongpath.share."+n].Value
					if math.Abs(sum-1) > 0.02 {
						t.Errorf("layer shares of %s sum to %.3f", n, sum)
					}
				}
			})
		}
	}
}

func TestCheckDigestsCountsMismatches(t *testing.T) {
	chk := &checker{}
	cells := []cell{{bench: "bfs", digest: "a"}, {bench: "cc", digest: "b"}}
	checkDigests(chk, "test", map[string]string{"bfs/nowp": "a", "cc/nowp": "x"}, cells)
	if chk.failed != 1 || !strings.Contains(chk.failures[0], "cc/nowp") {
		t.Fatalf("want one failure for cc/nowp, got %d: %v", chk.failed, chk.failures)
	}
}

func TestCompare(t *testing.T) {
	base := func(v float64) *record {
		return &record{Workload: "w", Host: host{CPU: "cpu", Go: "go1"}, Metrics: map[string]stat{
			"rate": {Better: "higher", Bound: 0.1, Value: v, Q1: v * 0.99, Q3: v * 1.01, Samples: []float64{v * 0.99, v, v * 1.01}},
			"p50":  {Better: "lower", Bound: 0.1, Value: 1, Q1: 0.5, Q3: 2},
		}}
	}
	for _, tc := range []struct {
		b         float64
		regressed bool
		verdict   string
	}{
		{100, false, "within bound"},
		{85, true, "REGRESSED"},
		{120, false, "improved"},
	} {
		var out bytes.Buffer
		regressed, err := compare(&out, base(100), base(tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("B=%v: regressed=%v, output %q; want %v and %q", tc.b, regressed, out.String(), tc.regressed, tc.verdict)
		}
	}
	var out bytes.Buffer
	if _, err := compare(&out, base(100), base(100)); err != nil || strings.Contains(out.String(), "unresolved") {
		t.Errorf("a latency's job quartiles were taken for run-to-run spread: %q", out.String())
	}
	other := base(100)
	other.Host.CPU = "another cpu"
	if _, err := compare(&bytes.Buffer{}, base(100), other); err == nil {
		t.Error("records from different CPU models compared without error")
	}
}
