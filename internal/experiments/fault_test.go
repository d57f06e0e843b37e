package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/tracefile"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
	"repro/internal/wrongpath"
)

// faultyRunner arms the full fault-tolerance layer and injects the
// acceptance scenario's two faults into the GAP sweep:
//
//   - bfs under wpemul: a forced producer panic (ErrWorkerPanic)
//   - pr under instrec: a corrupt (mid-record truncated) trace tail
//
// Each injector keys on the attempt's workload label and technique, so
// the degraded retries run clean.
func faultyRunner(t *testing.T) (*Runner, *strings.Builder) {
	t.Helper()
	var out strings.Builder
	params := gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 60_000}
	r := NewRunner(Options{
		GAP:  params,
		Spec: specproxy.Params{Scale: 0.01, Seed: 99},
		Out:  &out,
		Jobs: 2,
		Base: sim.Request{Config: sim.Config{
			Degrade: sim.DegradePolicy{MaxRetries: 2},
		}, Wrap: func(src sim.Source, c sim.Config) sim.Source {
			switch {
			case c.ObsLabel == "gap/bfs" && c.WP == wrongpath.WPEmul:
				return sim.WrapSource(src, func(p queue.Producer) queue.Producer {
					return faultinject.PanicAt(p, 500, "injected sweep fault")
				})
			case c.ObsLabel == "gap/pr" && c.WP == wrongpath.InstRec:
				// Swap in a trace source over a mid-record-truncated
				// recording of the same workload: the corrupt-tail fault.
				src.Close()
				w, _ := gap.ByName("pr", params)
				data := recordWorkloadTrace(t, w, 20_000)
				cut := faultinject.Truncate(data, int64(len(data)-3))
				rd, err := tracefile.NewReader(bytes.NewReader(cut))
				if err != nil {
					t.Fatal(err)
				}
				return sim.NewTraceSource(rd)
			}
			return src
		}},
	})
	return r, &out
}

// recordWorkloadTrace records up to maxInsts of the workload into an
// in-memory trace.
func recordWorkloadTrace(t *testing.T, w workloads.Workload, maxInsts uint64) []byte {
	t.Helper()
	inst, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop),
		frontend.WithMaxInstructions(maxInsts))
	var buf bytes.Buffer
	wr, err := tracefile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.Record(fe, wr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepSurvivesInjectedFaults is the acceptance scenario: with a
// corrupt trace tail and a forced worker panic both injected, the full GAP×techniques sweep (fig4gap fans out every cell)
// must complete with no crash; the faulted cells are retried-degraded
// and annotated, and every fault-free cell is bit-identical to a run
// without the fault-tolerance layer.
func TestSweepSurvivesInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment sweep skipped in -short mode")
	}
	clean, _ := testRunner(t)
	if err := clean.Run("fig4gap"); err != nil {
		t.Fatal(err)
	}
	faulty, out := faultyRunner(t)
	if err := faulty.Run("fig4gap"); err != nil {
		t.Fatalf("sweep did not survive injected faults: %v", err)
	}

	// The report annotates exactly the degraded cells.
	report := out.String()
	if !strings.Contains(report, "DEGRADED CELLS") {
		t.Error("report missing the degraded-cells footnote")
	}
	for _, cell := range []string{"gap/bfs/wpemul", "gap/pr/instrec"} {
		if !strings.Contains(report, cell) {
			t.Errorf("degraded cell %s not annotated in report", cell)
		}
	}

	// Faulted cells degraded as designed.
	type want struct {
		key       string
		requested wrongpath.Kind
		ranAs     wrongpath.Kind
	}
	for _, wnt := range []want{
		{"gap/bfs/wpemul", wrongpath.WPEmul, wrongpath.Conv},
		{"gap/pr/instrec", wrongpath.InstRec, wrongpath.InstRec}, // partial prefix, same rung
	} {
		res := faulty.cache[wnt.key]
		if res == nil {
			t.Fatalf("faulted cell %s missing from cache", wnt.key)
		}
		if !res.Degraded || res.WP != wnt.ranAs || res.RequestedWP != wnt.requested {
			t.Errorf("%s: degraded=%v WP=%v requested=%v, want degraded as %v",
				wnt.key, res.Degraded, res.WP, res.RequestedWP, wnt.ranAs)
		}
	}

	// Every fault-free cell bit-identical to the clean runner.
	faulted := map[string]bool{"gap/bfs/wpemul": true, "gap/pr/instrec": true}
	compared := 0
	for key, cres := range clean.cache {
		if faulted[key] {
			continue
		}
		fres := faulty.cache[key]
		if fres == nil {
			t.Errorf("fault-free cell %s missing from faulty runner", key)
			continue
		}
		if fres.Degraded || fres.Err != nil {
			t.Errorf("fault-free cell %s marked degraded (%v) or faulted (%v)", key, fres.Degraded, fres.Err)
		}
		if cres.Core != fres.Core || cres.Policy != fres.Policy {
			t.Errorf("fault-free cell %s differs with the fault layer armed", key)
		}
		compared++
	}
	if compared < 20 {
		t.Errorf("only %d fault-free cells compared — sweep did not fan out", compared)
	}
}

// TestCleanSweepByteIdenticalWithLayerArmed: arming the ladder without
// injecting anything must leave the report bytes untouched.
func TestCleanSweepByteIdenticalWithLayerArmed(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment sweep skipped in -short mode")
	}
	plain, plainOut := testRunner(t)
	if err := plain.Run("fig1"); err != nil {
		t.Fatal(err)
	}
	var armedOut strings.Builder
	armed := NewRunner(Options{
		GAP:  gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 60_000},
		Spec: specproxy.Params{Scale: 0.01, Seed: 99},
		Out:  &armedOut,
		Base: sim.Request{Config: sim.Config{
			Degrade: sim.DegradePolicy{MaxRetries: 2},
		}},
	})
	if err := armed.Run("fig1"); err != nil {
		t.Fatal(err)
	}
	if plainOut.String() != armedOut.String() {
		t.Errorf("armed-but-idle fault layer changed report bytes:\n--- plain ---\n%s\n--- armed ---\n%s",
			plainOut.String(), armedOut.String())
	}
}
