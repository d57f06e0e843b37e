package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// obsConfig returns a config with a fresh registry and an in-memory
// trace sink attached, plus the buffer the trace lands in.
func obsConfig(k wrongpath.Kind, label string) (Config, *obs.Registry, *obs.TraceSink, *bytes.Buffer) {
	cfg := Default(k)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	sink := obs.NewTraceSink(&buf)
	cfg.Metrics, cfg.Trace, cfg.ObsLabel = reg, sink, label
	return cfg, reg, sink, &buf
}

// TestObsEnabledBitIdentical: attaching the full observability stack
// (metrics registry + trace sink) must not perturb a single simulated
// statistic — instrumentation observes the simulation, never steers it.
// The acceptance criterion's enabled half at the session level.
func TestObsEnabledBitIdentical(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	for _, k := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.Conv, wrongpath.WPEmul} {
		plain, err := Run(Default(k), w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		cfg, _, sink, buf := obsConfig(k, "gap/bfs")
		observed, err := Run(cfg, w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatalf("%v: trace sink: %v", k, err)
		}
		if plain.Core != observed.Core || plain.Policy != observed.Policy {
			t.Errorf("%v: observability changed simulated statistics", k)
		}
		if plain.L1I != observed.L1I || plain.L1D != observed.L1D ||
			plain.L2 != observed.L2 || plain.LLC != observed.LLC {
			t.Errorf("%v: observability changed cache statistics", k)
		}
		if plain.FunctionalInsts != observed.FunctionalInsts ||
			plain.WPEmulatedPaths != observed.WPEmulatedPaths {
			t.Errorf("%v: observability changed frontend statistics", k)
		}
		if !json.Valid(buf.Bytes()) {
			t.Errorf("%v: trace sink emitted invalid JSON", k)
		}
	}
}

// TestExecuteObsIdentical: a sweep over Execute with observability on
// (and four workers) must match the plain serial sweep field-for-field
// (except host wall clock).
func TestExecuteObsIdentical(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	kinds := wrongpath.Kinds()
	plain := sweep(t, Default(wrongpath.NoWP), w, kinds, 1)
	cfg, reg, sink, buf := obsConfig(wrongpath.NoWP, "")
	observed := sweep(t, cfg, w, kinds, 4)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	for i, k := range kinds {
		if !reflect.DeepEqual(stripWall(plain[i]), stripWall(observed[i])) {
			t.Errorf("%v: observed sweep cell differs from plain cell", k)
		}
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("sweep trace is not valid JSON")
	}
	// Execute derives the workload label when none is set; every cell
	// publishes exactly one run under it.
	for i, k := range kinds {
		key := obs.Key("sim_runs_total", w.Suite+"/"+w.Name, k.String())
		if got := reg.Counter(key).Value(); got != 1 {
			t.Errorf("%s = %d, want 1", key, got)
		}
		key = obs.Key("sim_instructions_total", w.Suite+"/"+w.Name, k.String())
		if got := reg.Counter(key).Value(); got != observed[i].Core.Instructions {
			t.Errorf("%s = %d, want %d", key, got, observed[i].Core.Instructions)
		}
	}
}

// TestRunPublishesAggregates: a single accepted run publishes counters
// that equal the result's own statistics exactly.
func TestRunPublishesAggregates(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg, reg, sink, _ := obsConfig(wrongpath.Conv, "gap/bfs")
	res, err := Run(cfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name string
		want uint64
	}{
		{"sim_runs_total", 1},
		{"sim_instructions_total", res.Core.Instructions},
		{"sim_cycles_total", res.Core.Cycles},
		{"sim_mispredicts_total", res.Core.Mispredicts},
		{"wrongpath_generated_total", res.Policy.WPGenerated},
		{"conv_detected_total", res.Policy.ConvDetected},
	}
	for _, c := range checks {
		key := obs.Key(c.name, "gap/bfs", "conv")
		if got := reg.Counter(key).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", key, got, c.want)
		}
	}
}

// TestLadderMetricsNoDoubleCount is the degraded-sweep consistency
// criterion: a cell that faults on its requested rung and is rescued a
// rung down must publish aggregate counters for the accepted rung ONLY.
// The failed attempt's partial progress (it ran 100 instructions and
// generated wrong paths before the injected panic) must not leak into
// sweep totals — WPGenerated is never double-counted across retries.
func TestLadderMetricsNoDoubleCount(t *testing.T) {
	const label = "gap/bfs"
	w := gap.BFS(gap.TestParams())
	cfg, reg, sink, _ := obsConfig(wrongpath.Conv, label)
	cfg.Degrade = DegradePolicy{MaxRetries: 1}
	attempts := 0
	res, _, err := Execute(Request{Config: cfg, Workload: &w, Wrap: func(src Source, _ Config) Source {
		attempts++
		if attempts == 1 {
			return WrapSource(src, func(p queue.Producer) queue.Producer {
				return faultinject.PanicAt(p, 100, "injected worker fault")
			})
		}
		return src
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if attempts != 2 || res.WP != wrongpath.InstRec || !res.Degraded {
		t.Fatalf("ladder shape unexpected: attempts=%d WP=%v degraded=%v", attempts, res.WP, res.Degraded)
	}

	accepted := res.WP.String() // instrec — the rung that produced the result
	requested := "conv"         // the rung that faulted
	counter := func(name, tech string) uint64 {
		return reg.Counter(obs.Key(name, label, tech)).Value()
	}
	// Exactly one accepted run, counted under the accepted technique.
	if got := counter("sim_runs_total", accepted); got != 1 {
		t.Errorf("sim_runs_total{%s} = %d, want 1", accepted, got)
	}
	if got := counter("sim_runs_total", requested); got != 0 {
		t.Errorf("sim_runs_total{%s} = %d, want 0 — failed attempt must not publish", requested, got)
	}
	// Aggregates equal the accepted result exactly: the conv attempt's
	// partial run contributed nothing.
	if got := counter("wrongpath_generated_total", accepted); got != res.Policy.WPGenerated {
		t.Errorf("wrongpath_generated_total{%s} = %d, want %d (accepted result only)",
			accepted, got, res.Policy.WPGenerated)
	}
	if got := counter("wrongpath_generated_total", requested); got != 0 {
		t.Errorf("wrongpath_generated_total{%s} = %d, want 0 — retry rung double-counted", requested, got)
	}
	if got := counter("sim_instructions_total", accepted); got != res.Core.Instructions {
		t.Errorf("sim_instructions_total{%s} = %d, want %d", accepted, got, res.Core.Instructions)
	}
	if got := counter("sim_instructions_total", requested); got != 0 {
		t.Errorf("sim_instructions_total{%s} = %d, want 0", requested, got)
	}
	// The descent itself is visible: one retry and one degraded run,
	// both labeled by what was requested.
	if got := counter("sim_degrade_retries_total", requested); got != 1 {
		t.Errorf("sim_degrade_retries_total{%s} = %d, want 1", requested, got)
	}
	if got := counter("sim_degraded_runs_total", requested); got != 1 {
		t.Errorf("sim_degraded_runs_total{%s} = %d, want 1", requested, got)
	}
}
