package sim

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/queue"
	"repro/internal/simerr"
	"repro/internal/tracefile"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// recordTrace records the BFS test workload into an in-memory trace.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	inst := gap.BFS(gap.TestParams()).MustBuild()
	fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop))
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.Record(fe, w); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stallClock drives the watchdog deterministically: Now is a fixed
// clock, and every After channel fires once the trigger (the Freezer's
// Frozen signal) is closed — so the watchdog samples exactly from the
// moment the injected freeze engages.
type stallClock struct {
	fc   FixedClock
	trig <-chan struct{}
}

func (c *stallClock) Now() time.Time { return c.fc.Now() }

func (c *stallClock) After(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	go func() {
		<-c.trig
		ch <- time.Time{}
	}()
	return ch
}

// runFrozen runs the BFS workload with a producer frozen at the n-th
// instruction and a watchdog on the deterministic stall clock.
func runFrozen(t *testing.T, n uint64) *Result {
	t.Helper()
	cfg := Default(wrongpath.Conv)
	inst := gap.BFS(gap.TestParams()).MustBuild()
	var fz *faultinject.Freezer
	src := WrapSource(NewFunctionalSource(cfg, inst), func(p queue.Producer) queue.Producer {
		fz = faultinject.FreezeAt(p, n)
		return fz
	})
	cfg.Clock = &stallClock{trig: fz.Frozen()}
	cfg.Watchdog = time.Second // interval semantics come from the stall clock
	s, err := NewSession(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run()
}

// TestWatchdogFiresDeterministicallyOnFrozenProducer: the acceptance
// scenario. A frozen producer must not hang the run: the watchdog
// detects the stall, interrupts the source, and the Result carries a
// typed ErrStall with a deterministic diagnostic snapshot — identical
// across repeated runs.
func TestWatchdogFiresDeterministicallyOnFrozenProducer(t *testing.T) {
	const freezeAt = 500
	a := runFrozen(t, freezeAt)
	if !errors.Is(a.Err, simerr.ErrStall) {
		t.Fatalf("Result.Err = %v, want ErrStall class", a.Err)
	}
	var f *simerr.Fault
	if !errors.As(a.Err, &f) {
		t.Fatal("stall error is not a *simerr.Fault")
	}
	if f.Fetched != freezeAt-1 {
		t.Errorf("snapshot fetched = %d, want %d (instructions before the freeze)", f.Fetched, freezeAt-1)
	}
	if f.PC == 0 {
		t.Error("snapshot carries no PC")
	}
	if f.Consumed > f.Fetched {
		t.Errorf("snapshot consumed %d > fetched %d", f.Consumed, f.Fetched)
	}
	if f.Technique != "conv" {
		t.Errorf("snapshot technique = %q, want conv", f.Technique)
	}

	b := runFrozen(t, freezeAt)
	var g *simerr.Fault
	if !errors.As(b.Err, &g) {
		t.Fatalf("second run: Err = %v", b.Err)
	}
	if f.Fetched != g.Fetched || f.Consumed != g.Consumed || f.PC != g.PC {
		t.Errorf("watchdog snapshot not deterministic:\n run1 fetched=%d consumed=%d pc=%#x\n run2 fetched=%d consumed=%d pc=%#x",
			f.Fetched, f.Consumed, f.PC, g.Fetched, g.Consumed, g.PC)
	}
}

// TestWatchdogIdleBitIdentical: an armed-but-never-firing watchdog must
// not perturb any simulated statistic — the fault-tolerance layer costs
// nothing on the fault-free path.
func TestWatchdogIdleBitIdentical(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	for _, k := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.Conv, wrongpath.WPEmul} {
		plain, err := Run(Default(k), w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default(k)
		cfg.Watchdog = time.Minute
		watched, err := Run(cfg, w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if watched.Err != nil {
			t.Fatalf("%v: idle watchdog produced a fault: %v", k, watched.Err)
		}
		if plain.Core != watched.Core || plain.Policy != watched.Policy {
			t.Errorf("%v: idle watchdog changed simulated statistics", k)
		}
		if plain.L1D != watched.L1D || plain.LLC != watched.LLC {
			t.Errorf("%v: idle watchdog changed cache statistics", k)
		}
		if plain.FunctionalInsts != watched.FunctionalInsts {
			t.Errorf("%v: idle watchdog changed functional instruction count", k)
		}
	}
}

// TestLadderDegradesUnsupported: wpemul on a trace source is the
// paper's own unsupported case; with the ladder armed it must re-run as
// conv and annotate, not fail.
func TestLadderDegradesUnsupported(t *testing.T) {
	data := recordTrace(t)
	cfg := Default(wrongpath.WPEmul)
	cfg.Degrade = DegradePolicy{MaxRetries: 2}
	res, _, err := Execute(Request{Config: cfg, Trace: traceOpener(data)})
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
	direct, _, err := Execute(Request{Config: Default(wrongpath.Conv), Trace: traceOpener(data)})
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
	_, _, err := Execute(Request{Config: Default(wrongpath.WPEmul), Trace: traceOpener(data)})
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
	res, _, err := Execute(Request{Config: cfg, Trace: traceOpener(cut)})
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

// TestLadderStallDegrades: a stall on the requested rung (frozen
// producer + watchdog) degrades to the next rung when the fault
// injector targets only the first attempt. The watchdog runs on the
// wall clock with a short budget: the freeze is permanent, so the
// outcome (fire, interrupt, degrade) is deterministic even though the
// firing instant is not.
func TestLadderStallDegrades(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg := Default(wrongpath.Conv)
	cfg.Degrade = DegradePolicy{MaxRetries: 1}
	cfg.Watchdog = 100 * time.Millisecond
	res, _, err := Execute(Request{Config: cfg, Workload: &w, Wrap: func(src Source, c Config) Source {
		if c.WP != wrongpath.Conv {
			return src
		}
		return WrapSource(src, func(p queue.Producer) queue.Producer {
			return faultinject.FreezeAt(p, 200)
		})
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded || res.WP != wrongpath.InstRec {
		t.Fatalf("stall did not degrade: degraded=%v WP=%v err=%v", res.Degraded, res.WP, res.Err)
	}
	if !errors.Is(res.DegradeFault, simerr.ErrStall) {
		t.Errorf("DegradeFault = %v, want ErrStall cause", res.DegradeFault)
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
