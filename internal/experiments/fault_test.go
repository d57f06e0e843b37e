package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/wrongpath"
)

// panicPolicy is a wrong-path policy whose Begin panics: a policy bug
// every cell reaches at its first mispredict.
type panicPolicy struct{ wrongpath.Policy }

func (panicPolicy) Begin(*wrongpath.Context, *trace.DynInst, uint64) []trace.DynInst {
	panic("injected policy fault")
}

// TestSweepSurvivesInjectedFaults: a panic injected into the cells of
// the GAP×techniques sweep (fig4gap fans out every cell) is contained,
// and the sweep ends with a typed ErrWorkerPanic naming a cell instead
// of crashing or answering the cell with another technique.
func TestSweepSurvivesInjectedFaults(t *testing.T) {
	r, _ := testRunnerJobs(t, 2)
	r.opt.Base.Config.PolicyFactory = func() wrongpath.Policy { return panicPolicy{wrongpath.New(wrongpath.Conv)} }
	err := r.Run("fig4gap")
	if !errors.Is(err, simerr.ErrWorkerPanic) {
		t.Fatalf("sweep err = %v, want ErrWorkerPanic", err)
	}
	if !strings.HasPrefix(err.Error(), "gap/") {
		t.Errorf("sweep err %q names no gap/… cell", simerr.FirstLine(err))
	}
}
