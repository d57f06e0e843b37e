package sim

import (
	"strings"
	"testing"

	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// TestSessionCapabilityRejection: the session layer must reject wpemul
// on any source that cannot functionally emulate wrong paths (the
// paper's §III-B restriction), and must do so before touching the
// producer — a trace source with no stream behind it is enough to get
// the error.
func TestSessionCapabilityRejection(t *testing.T) {
	_, err := NewSession(Default(wrongpath.WPEmul), NewTraceSource(nil))
	if err == nil {
		t.Fatal("session accepted wpemul on a trace source")
	}
	if !strings.Contains(err.Error(), "III-B") {
		t.Errorf("rejection should cite the paper's restriction, got: %v", err)
	}

	// Every reconstruction technique must pass the capability check
	// (construction only — a nil producer cannot run).
	for _, k := range wrongpath.Kinds() {
		if k == wrongpath.WPEmul {
			continue
		}
		if _, err := NewSession(Default(k), NewTraceSource(nil)); err != nil {
			t.Errorf("%v rejected on a trace source: %v", k, err)
		}
	}
}

// TestSessionMatchesRun: constructing the source and session by hand
// must be bit-identical to the Run wrapper — Run is documented as a
// thin wrapper, and callers supplying custom sources rely on it.
func TestSessionMatchesRun(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	for _, k := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.Conv, wrongpath.WPEmul} {
		cfg := Default(k)

		wrapped, err := Run(cfg, w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}

		src := NewFunctionalSource(cfg, w.MustBuild())
		s, err := NewSession(cfg, src)
		if err != nil {
			src.Close()
			t.Fatal(err)
		}
		manual := s.Run()

		if wrapped.Core != manual.Core {
			t.Errorf("%v: core stats diverge:\n wrapped %+v\n manual  %+v", k, wrapped.Core, manual.Core)
		}
		if wrapped.L1D != manual.L1D || wrapped.L2 != manual.L2 {
			t.Errorf("%v: cache stats diverge", k)
		}
		if wrapped.FunctionalInsts != manual.FunctionalInsts ||
			wrapped.WPEmulatedPaths != manual.WPEmulatedPaths {
			t.Errorf("%v: source-side stats diverge", k)
		}
	}
}
