package sim

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/wrongpath"
)

// Source is the unified producer abstraction over the three frontend
// kinds the paper lists (§III-B): the live functional frontend, the
// parallel (decoupled-goroutine) functional frontend, and the trace
// interpreter. A Source feeds the decoupling queue and declares its
// capabilities, so the session layer can validate a Config against any
// frontend with one check instead of a special-cased entry point per
// combination.
type Source interface {
	queue.Producer

	// SupportsWPEmul reports whether the source can functionally
	// emulate wrong paths. Live functional frontends can; a trace
	// interpreter cannot, because "the trace only contains correct-path
	// instructions" (§III-B).
	SupportsWPEmul() bool

	// Close stops any background production (the parallel frontend's
	// producer goroutine). The session calls it after the timing run,
	// before Collect; it must be safe to call on a source that never
	// started.
	Close()

	// Collect fills the source-side Result fields (functional
	// instruction count, emulation counters, program output, functional
	// error) after the run. Core-side fields are already populated when
	// Collect is called.
	Collect(res *Result)
}

// functionalSource drives a live functional CPU, optionally decoupled
// into its own goroutine (Config.ParallelFrontend) and optionally
// emulating wrong paths (Config.WP == wrongpath.WPEmul).
type functionalSource struct {
	cpu      *functional.CPU
	fe       *frontend.Frontend
	par      *frontend.Parallel
	producer queue.Producer
}

// NewFunctionalSource builds the live functional frontend for the
// instance under cfg: wrong-path emulation when cfg.WP selects it, the
// instruction bound derived from cfg's budget, and the parallel
// producer goroutine when cfg.ParallelFrontend is set. Close must be
// called (sessions do) or the parallel goroutine leaks.
func NewFunctionalSource(cfg Config, inst *workloads.Instance) Source {
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	opts := []frontend.Option{}
	if cfg.WP == wrongpath.WPEmul {
		opts = append(opts, frontend.WithWrongPathEmulation(cfg.Core.BranchPred, cfg.Core.WPMaxLen()))
	}
	if cfg.MaxInsts > 0 {
		// Bound the functional side explicitly so a parallel frontend
		// does not run past the budget the core will simulate.
		opts = append(opts, frontend.WithMaxInstructions(cfg.WarmupInsts+cfg.MaxInsts+uint64(cfg.lookahead())+1))
	}
	fe := frontend.New(cpu, opts...)
	s := &functionalSource{cpu: cpu, fe: fe, producer: fe}
	if cfg.ParallelFrontend {
		// The run context backstops the producer goroutine: if the
		// consumer stops without Close (cancellation unwinding a sweep
		// cell), the goroutine exits instead of leaking on a full channel.
		s.par = frontend.NewParallelContext(cfg.Ctx, fe, frontend.DefaultBatch, frontend.DefaultDepth)
		s.producer = s.par
	}
	return s
}

func (s *functionalSource) Next() (trace.DynInst, bool) { return s.producer.Next() }

// NextBatch implements queue.BatchProducer by forwarding to the active
// producer (the frontend directly, or its parallel wrapper).
func (s *functionalSource) NextBatch(dst []trace.DynInst) int {
	return queue.NextBatchOf(s.producer, dst)
}

// Program exposes the static program for code-cache predecoding.
func (s *functionalSource) Program() *isa.Program { return s.cpu.Prog }

func (s *functionalSource) SupportsWPEmul() bool { return true }

func (s *functionalSource) Close() {
	if s.par != nil {
		// Stop the producer goroutine before reading functional-side
		// state (Output, Produced) to avoid racing with it.
		s.par.Close()
	}
}

// State walks the complete production-side state — frontend cursor,
// emulation predictor copy, functional CPU and memory — by delegating
// to the frontend. Only the synchronous mode checkpoints (the session
// layer rejects the parallel frontend), so no goroutine state exists to
// capture.
func (s *functionalSource) State(st *checkpoint.Stream) { s.fe.State(st) }

func (s *functionalSource) Collect(res *Result) {
	paths, insts := s.fe.WPEmulations()
	res.FunctionalInsts = s.fe.Produced()
	res.WPEmulatedPaths = paths
	res.WPEmulatedInsts = insts
	res.Output = s.cpu.Output
	res.Err = s.fe.Err()
	if s.par != nil {
		if perr := s.par.Err(); perr != nil {
			// A recovered producer panic outranks any functional error:
			// the functional state is whatever the panic left behind.
			res.Err = perr
		}
	}
}

// traceSource adapts a pre-recorded instruction stream (typically a
// *tracefile.Reader) to the Source interface. It cannot emulate wrong
// paths, so the session layer rejects wrongpath.WPEmul for it (paper
// §III-B).
type traceSource struct {
	src queue.Producer
}

// NewTraceSource wraps a trace producer as a Source.
func NewTraceSource(src queue.Producer) Source { return traceSource{src: src} }

func (s traceSource) Next() (trace.DynInst, bool) { return s.src.Next() }

// NextBatch forwards batched refills to the trace producer (batched
// when the reader supports it, per-record otherwise).
func (s traceSource) NextBatch(dst []trace.DynInst) int {
	return queue.NextBatchOf(s.src, dst)
}

func (s traceSource) SupportsWPEmul() bool { return false }

func (s traceSource) Close() {}

// State walks the trace cursor: the number of records decoded so far.
// The trace bytes themselves are the durable artifact; a load skips a
// fresh reader (positioned at record 0, supporting Skip as
// tracefile.Reader does) forward to the cursor.
func (s traceSource) State(st *checkpoint.Stream) {
	st.Section("sim/traceSource", sessionSnapshotVersion)
	// checkpointState gates on this capability before any snapshot is
	// attempted, so the assertion cannot fail here.
	pos := s.src.(interface{ Pos() uint64 }).Pos()
	if st.Uint64(&pos); !st.Loading() || st.Err() != nil {
		return
	}
	if sk, ok := s.src.(interface{ Skip(uint64) error }); ok {
		st.Fail(sk.Skip(pos))
	} else {
		st.Fail(fmt.Errorf("sim: trace producer %T cannot skip to the snapshot cursor", s.src))
	}
}

func (s traceSource) Collect(res *Result) {
	// A trace replays exactly the instructions the core consumes; the
	// recorded stream has no program output. A reader that exposes a
	// stream error (tracefile.Reader's typed ErrTraceCorrupt) reports it
	// here, so a corrupt tail surfaces instead of truncating silently.
	res.FunctionalInsts = res.Core.Instructions
	if e, ok := s.src.(interface{ Err() error }); ok {
		res.Err = e.Err()
	}
}

// WrapSource replaces the instruction stream of src with wrap(src),
// keeping src's capabilities and lifecycle — the injection point for
// fault wrappers (internal/faultinject) and stream filters.
func WrapSource(src Source, wrap func(queue.Producer) queue.Producer) Source {
	return &wrappedSource{Source: src, producer: wrap(src)}
}

type wrappedSource struct {
	Source
	producer queue.Producer
}

func (w *wrappedSource) Next() (trace.DynInst, bool) { return w.producer.Next() }

// NextBatch must be defined explicitly: the embedded Source would
// otherwise promote its own NextBatch and hand out batches that bypass
// the wrapper chain (fault injectors, filters). Batches route through
// w.producer, falling back to its per-record Next when the wrapper does
// not batch — which keeps every wrapped record passing through wrap().
func (w *wrappedSource) NextBatch(dst []trace.DynInst) int {
	return queue.NextBatchOf(w.producer, dst)
}
