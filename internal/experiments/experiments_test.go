package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
)

func testRunner(t *testing.T) (*Runner, *strings.Builder) {
	t.Helper()
	return testRunnerJobs(t, 0)
}

func testRunnerJobs(t *testing.T, jobs int) (*Runner, *strings.Builder) {
	t.Helper()
	var out strings.Builder
	r := NewRunner(Options{
		GAP:  gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 60_000},
		Spec: specproxy.Params{Scale: 0.01, Seed: 99},
		Out:  &out,
		Jobs: jobs,
	})
	return r, &out
}

// TestAllExperiments runs every experiment at miniature scale and
// checks each produces its report skeleton. This exercises the full
// fan-out: every workload under every technique plus the ablations.
func TestAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment sweep skipped in -short mode")
	}
	r, out := testRunner(t)
	if err := r.All(); err != nil {
		t.Fatal(err)
	}
	report := out.String()
	for _, want := range []string{
		"TABLE I", "FIG 1", "FIG 4 (left)", "FIG 4 (right)",
		"SIMULATION SPEED", "TABLE II", "TABLE III", "ABLATION",
		"bc", "bfs", "cc", "pr", "sssp", "tc",
		"hashloop", "streamtriad",
		"nowp", "instrec", "conv", "wpemul",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r, _ := testRunner(t)
	if err := r.Run("nonsense"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestNamesRegistered(t *testing.T) {
	names := Names()
	if len(names) != len(registry) {
		t.Errorf("Names() returned %d entries, registry has %d", len(names), len(registry))
	}
	for _, want := range []string{"table1", "fig1", "fig4gap", "fig4spec", "table2", "table3", "speed", "ablation"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("experiment %q not registered", want)
		}
	}
}

// TestReportBytesIdenticalAcrossJobs: Options.Jobs may only change
// host wall-clock behaviour — the report text must be byte-identical
// between a serial and a parallel runner. The experiments chosen cover
// the prefetch path (fig1, table3) and the custom-configuration batch
// path (ablation); speed is excluded because it prints wall
// clocks by design.
func TestReportBytesIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment sweep skipped in -short mode")
	}
	exps := []string{"fig1", "table3", "ablation"}
	serial, serialOut := testRunnerJobs(t, 1)
	parallel, parallelOut := testRunnerJobs(t, 4)
	for _, exp := range exps {
		if err := serial.Run(exp); err != nil {
			t.Fatalf("jobs=1 %s: %v", exp, err)
		}
		if err := parallel.Run(exp); err != nil {
			t.Fatalf("jobs=4 %s: %v", exp, err)
		}
	}
	if serialOut.String() != parallelOut.String() {
		t.Errorf("report text differs between jobs=1 and jobs=4:\n--- jobs=1 ---\n%s\n--- jobs=4 ---\n%s",
			serialOut.String(), parallelOut.String())
	}
}

// TestReportBytesIdenticalWithObs: attaching the observability stack
// to a runner must not change a byte of the report text — the registry
// and trace sink are side channels, never report inputs. The sweep must
// still leave a valid Perfetto trace and a populated metrics registry
// behind (the acceptance criterion's enabled half at the report level).
func TestReportBytesIdenticalWithObs(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment sweep skipped in -short mode")
	}
	plain, plainOut := testRunner(t)
	if err := plain.Run("fig1"); err != nil {
		t.Fatal(err)
	}

	var observedOut strings.Builder
	var traceBuf bytes.Buffer
	reg := obs.NewRegistry()
	sink := obs.NewTraceSink(&traceBuf)
	observed := NewRunner(Options{
		GAP:  gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 60_000},
		Spec: specproxy.Params{Scale: 0.01, Seed: 99},
		Out:  &observedOut,
		Base: sim.Request{Config: sim.Config{Metrics: reg, Trace: sink}},
	})
	if err := observed.Run("fig1"); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	if plainOut.String() != observedOut.String() {
		t.Errorf("report text differs with observability attached:\n--- plain ---\n%s\n--- observed ---\n%s",
			plainOut.String(), observedOut.String())
	}
	if !json.Valid(traceBuf.Bytes()) {
		t.Error("sweep trace is not valid JSON")
	}
	snap := reg.Snapshot()
	if len(snap) == 0 {
		t.Error("metrics registry empty after an instrumented sweep")
	}
	// Every fig1 cell runs nowp and wpemul over the six GAP kernels;
	// each must have published exactly one run.
	for _, wl := range []string{"gap/bfs", "gap/cc"} {
		for _, tech := range []string{"nowp", "wpemul"} {
			key := obs.Key("sim_runs_total", wl, tech)
			if got := reg.Counter(key).Value(); got != 1 {
				t.Errorf("%s = %d, want 1", key, got)
			}
		}
	}
}

// TestResultMemoization: the second request for the same run must not
// simulate again (observable through pointer identity).
func TestResultMemoization(t *testing.T) {
	r, _ := testRunner(t)
	w, _ := gap.ByName("bfs", gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 20_000})
	a, err := r.result(w, Kinds[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.result(w, Kinds[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("result not memoized")
	}
}
