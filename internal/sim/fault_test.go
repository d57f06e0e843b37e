package sim

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/obs"
	"repro/internal/simerr"
	"repro/internal/trace"
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

// TestExecuteRejectsWPEmulOnTrace: wpemul on a trace source is the
// paper's own unsupported case (§III-B), a fixed property of the request:
// a typed ErrConfig and no result.
func TestExecuteRejectsWPEmulOnTrace(t *testing.T) {
	res, _, err := Execute(Request{Config: Default(wrongpath.WPEmul), Trace: recordTrace(t)})
	if res != nil || !errors.Is(err, simerr.ErrConfig) {
		t.Fatalf("res %v, err = %v; want no result and ErrConfig", res, err)
	}
}

// TestExecuteCorruptTraceKeepsPrefix: a corrupt trace tail ends the run
// early; the valid prefix comes back as a partial result whose Err
// carries the typed fault.
func TestExecuteCorruptTraceKeepsPrefix(t *testing.T) {
	data := recordTrace(t)
	cut := faultinject.Truncate(data, int64(len(data)-3)) // mid-record: records are >= 8 bytes
	res, _, err := Execute(Request{Config: Default(wrongpath.Conv), Trace: cut})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, simerr.ErrTraceCorrupt) {
		t.Errorf("Err = %v, want ErrTraceCorrupt", res.Err)
	}
	if res.WP != wrongpath.Conv || res.Core.Instructions == 0 {
		t.Errorf("partial result ran %v over %d instructions, want conv over a nonempty prefix", res.WP, res.Core.Instructions)
	}
}

// panicPolicy is a wrong-path policy whose Begin panics: a policy bug
// the run reaches at its first mispredict.
type panicPolicy struct{ wrongpath.Policy }

func (panicPolicy) Begin(*wrongpath.Context, *trace.DynInst, uint64) []trace.DynInst {
	panic("injected policy fault")
}

// TestExecutePanicPublishesNothing: a panic inside the run is contained
// as a typed ErrWorkerPanic with no result, and the failed run publishes
// none of the aggregate counters — sweep totals count only results a
// caller receives.
func TestExecutePanicPublishesNothing(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg, reg, _, _ := obsConfig(wrongpath.Conv, "gap/bfs")
	cfg.PolicyFactory = func() wrongpath.Policy { return panicPolicy{wrongpath.New(wrongpath.Conv)} }
	res, _, err := Execute(Request{Config: cfg, Workload: &w})
	if res != nil || !errors.Is(err, simerr.ErrWorkerPanic) {
		t.Fatalf("res %v, err = %v; want no result and ErrWorkerPanic", res, err)
	}
	for _, name := range []string{"sim_runs_total", "sim_instructions_total", "wrongpath_generated_total"} {
		if got := reg.Counter(obs.Key(name, "gap/bfs", "conv")).Value(); got != 0 {
			t.Errorf("%s = %d, want 0: a failed run must not publish", name, got)
		}
	}
}
