package sim

import (
	"repro/internal/checkpoint"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workloads"
	"repro/internal/wrongpath"
)

// Source is the unified producer abstraction over the two frontend
// kinds the paper lists (§III-B): the live functional frontend and the
// trace interpreter. A Source feeds the decoupling queue and declares
// its capabilities, so the session layer can validate a Config against
// any frontend with one check instead of a special-cased entry point
// per combination.
type Source interface {
	queue.Producer

	// WrongPaths attaches the consumer of the source's functionally
	// emulated wrong paths and returns the take function the core calls
	// at every mispredict, which hands over the path's buffer in exchange
	// for a spare one (see frontend.WrongPaths). It is nil when the source
	// does not emulate: a live frontend built without wpemul, or a trace
	// interpreter, because "the trace only contains correct-path
	// instructions" (§III-B). The session calls it once.
	WrongPaths() func(seq uint64, spare []trace.DynInst) trace.Path

	// Close releases the source after the run. The session calls it
	// after the timing run, before Collect; it must be safe to call on a
	// source that never started.
	Close()

	// Collect fills the source-side Result fields (functional
	// instruction count, emulation counters, program output, functional
	// error) after the run. Core-side fields are already populated when
	// Collect is called.
	Collect(res *Result)
}

// functionalSource drives a live functional CPU, emulating wrong paths
// when Config.WP is wrongpath.WPEmul.
type functionalSource struct {
	cpu *functional.CPU
	fe  *frontend.Frontend
}

// NewFunctionalSource builds the live functional frontend for the
// instance under cfg: wrong-path emulation when cfg.WP selects it, and
// the instruction bound derived from cfg's budget.
func NewFunctionalSource(cfg Config, inst *workloads.Instance) Source {
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	opts := []frontend.Option{}
	if cfg.WP == wrongpath.WPEmul {
		opts = append(opts, frontend.WithWrongPathEmulation(cfg.Core.BranchPred, cfg.Core.WPMaxLen()))
	}
	if cfg.MaxInsts > 0 {
		// Bound the functional side to the budget the core will simulate
		// plus the queue's lookahead.
		opts = append(opts, frontend.WithMaxInstructions(cfg.WarmupInsts+cfg.MaxInsts+uint64(cfg.lookahead())+1))
	}
	return &functionalSource{cpu: cpu, fe: frontend.New(cpu, opts...)}
}

func (s *functionalSource) Next() (trace.DynInst, bool) { return s.fe.Next() }

// NextBatch implements queue.BatchProducer by forwarding to the
// frontend.
func (s *functionalSource) NextBatch(dst []trace.DynInst) int { return s.fe.NextBatch(dst) }

// Program exposes the static program for code-cache predecoding.
func (s *functionalSource) Program() *isa.Program { return s.cpu.Prog }

func (s *functionalSource) WrongPaths() func(seq uint64, spare []trace.DynInst) trace.Path {
	return s.fe.WrongPaths()
}

func (s *functionalSource) Close() {}

// State walks the complete production-side state — frontend cursor,
// emulation predictor copy and untaken wrong paths, functional CPU and
// memory — by delegating to the frontend.
func (s *functionalSource) State(st *checkpoint.Stream) { s.fe.State(st) }

func (s *functionalSource) Collect(res *Result) {
	paths, insts := s.fe.WPEmulations()
	res.FunctionalInsts = s.fe.Produced()
	res.WPEmulatedPaths = paths
	res.WPEmulatedInsts = insts
	res.Output = s.cpu.Output
	res.Err = s.fe.Err()
}

// traceSource adapts a recorded trace to the Source interface. It
// cannot emulate wrong paths, so the session layer rejects
// wrongpath.WPEmul for it (paper §III-B).
type traceSource struct {
	r *tracefile.Reader
}

// NewTraceSource wraps a trace reader as a Source.
func NewTraceSource(r *tracefile.Reader) Source { return traceSource{r: r} }

func (s traceSource) Next() (trace.DynInst, bool) { return s.r.Next() }

func (s traceSource) WrongPaths() func(seq uint64, spare []trace.DynInst) trace.Path { return nil }

func (s traceSource) Close() {}

// State walks the trace cursor: the number of records decoded so far.
// The trace bytes themselves are the durable artifact; a load skips a
// fresh reader, positioned at record 0, forward to the cursor.
func (s traceSource) State(st *checkpoint.Stream) {
	st.Section("sim/traceSource", sessionSnapshotVersion)
	pos := s.r.Pos()
	if st.Uint64(&pos); st.Loading() && st.Err() == nil {
		st.Fail(s.r.Skip(pos))
	}
}

func (s traceSource) Collect(res *Result) {
	// A trace replays exactly the instructions the core consumes; the
	// recorded stream has no program output. The reader's stream error
	// (a typed ErrTraceCorrupt) surfaces here, so a corrupt tail is
	// reported instead of truncating silently.
	res.FunctionalInsts = res.Core.Instructions
	res.Err = s.r.Err()
}
