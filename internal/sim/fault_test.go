package sim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/queue"
	"repro/internal/simerr"
	"repro/internal/tracefile"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// recordTrace records the BFS test workload into an in-memory trace.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	return recordWorkload(t, gap.BFS(gap.TestParams()))
}

// recordWorkload records w into an in-memory trace.
func recordWorkload(t *testing.T, w workloads.Workload) []byte {
	t.Helper()
	inst := w.MustBuild()
	fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop))
	var buf bytes.Buffer
	tw, err := tracefile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.Record(fe, tw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLadderDegradesUnsupported: wpemul on a trace source is the
// paper's own unsupported case; with the ladder armed it must re-run as
// conv and annotate, not fail.
func TestLadderDegradesUnsupported(t *testing.T) {
	data := recordTrace(t)
	cfg := Default(wrongpath.WPEmul)
	cfg.Degrade = DegradePolicy{MaxRetries: 2}
	res, _, err := Execute(Request{Config: cfg, Trace: data})
	if err != nil {
		t.Fatal(err)
	}
	if res.WP != wrongpath.Conv || res.RequestedWP != wrongpath.WPEmul || !res.Degraded {
		t.Fatalf("degradation not recorded: WP=%v requested=%v degraded=%v", res.WP, res.RequestedWP, res.Degraded)
	}
	if !errors.Is(res.DegradeFault, simerr.ErrDegraded) || !errors.Is(res.DegradeFault, simerr.ErrUnsupported) {
		t.Errorf("DegradeFault = %v, want ErrDegraded wrapping ErrUnsupported", res.DegradeFault)
	}

	// The degraded cell must equal a direct conv replay bit-for-bit.
	direct, _, err := Execute(Request{Config: Default(wrongpath.Conv), Trace: data})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core != direct.Core {
		t.Error("degraded conv run differs from a direct conv run")
	}
}

// TestLadderDisabledStillRejectsUnsupported: without the ladder the
// capability fault surfaces as a typed error, same as before.
func TestLadderDisabledStillRejectsUnsupported(t *testing.T) {
	data := recordTrace(t)
	_, _, err := Execute(Request{Config: Default(wrongpath.WPEmul), Trace: data})
	if !errors.Is(err, simerr.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported class", err)
	}
}

// TestLadderKeepsCorruptPrefix: a corrupt trace tail keeps the valid
// prefix as an annotated partial result instead of re-running (the same
// bytes would fail again) or failing the cell.
func TestLadderKeepsCorruptPrefix(t *testing.T) {
	data := recordTrace(t)
	cut := faultinject.Truncate(data, int64(len(data)-3)) // mid-record: records are >= 8 bytes
	cfg := Default(wrongpath.Conv)
	cfg.Degrade = DegradePolicy{MaxRetries: 2}
	res, _, err := Execute(Request{Config: cfg, Trace: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.WP != wrongpath.Conv {
		t.Fatalf("partial prefix not annotated: degraded=%v WP=%v", res.Degraded, res.WP)
	}
	if !errors.Is(res.DegradeFault, simerr.ErrTraceCorrupt) || !errors.Is(res.DegradeFault, simerr.ErrDegraded) {
		t.Errorf("DegradeFault = %v, want ErrDegraded wrapping ErrTraceCorrupt", res.DegradeFault)
	}
	if res.Core.Instructions == 0 {
		t.Error("partial result simulated nothing")
	}
}

// TestLadderDegradesOnWorkerPanic: a panic on the first attempt is
// recovered and the job re-runs a rung down with a fresh source.
func TestLadderDegradesOnWorkerPanic(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg := Default(wrongpath.Conv)
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
	if attempts != 2 {
		t.Fatalf("ladder made %d attempts, want 2", attempts)
	}
	if res.WP != wrongpath.InstRec || res.RequestedWP != wrongpath.Conv || !res.Degraded {
		t.Fatalf("degradation not recorded: WP=%v requested=%v degraded=%v", res.WP, res.RequestedWP, res.Degraded)
	}
	if !errors.Is(res.DegradeFault, simerr.ErrWorkerPanic) {
		t.Errorf("DegradeFault = %v, want ErrWorkerPanic cause", res.DegradeFault)
	}

	// The degraded instrec result must match a clean instrec run.
	direct, _, err := Execute(Request{Config: Default(wrongpath.InstRec), Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Core != direct.Core {
		t.Error("degraded instrec run differs from a direct instrec run")
	}
}

// TestLadderExhaustsToTypedError: a fault on every rung within the
// retry budget fails the cell with the typed fault, not a crash.
func TestLadderExhaustsToTypedError(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg := Default(wrongpath.Conv)
	cfg.Degrade = DegradePolicy{MaxRetries: 1}
	res, _, err := Execute(Request{Config: cfg, Workload: &w, Wrap: func(src Source, _ Config) Source {
		return WrapSource(src, func(p queue.Producer) queue.Producer {
			return faultinject.PanicAt(p, 50, "persistent fault")
		})
	}})
	if res != nil {
		t.Error("exhausted ladder returned a result")
	}
	if !errors.Is(err, simerr.ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic class", err)
	}
}

// TestRunKindsLadderCleanBitIdentical: with the ladder armed but no
// fault injected, every cell of a sweep must be bit-identical to the
// unarmed run — the acceptance criterion's fault-free half at the sim
// layer.
func TestRunKindsLadderCleanBitIdentical(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	kinds := wrongpath.Kinds()
	plain := sweep(t, Default(wrongpath.NoWP), w, kinds, 1)
	cfg := Default(wrongpath.NoWP)
	cfg.Degrade = DegradePolicy{MaxRetries: 2}
	laddered := sweep(t, cfg, w, kinds, 1)
	for i, k := range kinds {
		p, l := plain[i], laddered[i]
		if l.Degraded || l.Err != nil {
			t.Fatalf("%v: fault-free cell marked degraded (%v) or faulted (%v)", k, l.Degraded, l.Err)
		}
		if p.Core != l.Core || p.Policy != l.Policy {
			t.Errorf("%v: ladder-armed clean run differs from plain run", k)
		}
		if p.L1I != l.L1I || p.L1D != l.L1D || p.L2 != l.L2 || p.LLC != l.LLC {
			t.Errorf("%v: cache stats differ with ladder armed", k)
		}
	}
}
