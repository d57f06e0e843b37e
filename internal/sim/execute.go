package sim

import (
	"bytes"
	"fmt"
	"runtime/debug"

	"repro/internal/checkpoint"
	"repro/internal/simerr"
	"repro/internal/tracefile"
	"repro/internal/workloads"
)

// Request is one simulation to execute: a Config plus exactly one input.
type Request struct {
	// Config is the simulation to run. (Config.Trace is the event-trace
	// sink; the Trace field below is an input.)
	Config Config
	// Workload is the live-functional input; Execute builds a fresh
	// instance from it.
	Workload *workloads.Workload
	// Trace is the recorded-trace input: a trace file's bytes, as
	// tracefile.Record writes them. Execute replays a fresh
	// tracefile.Reader from the first record, and the bytes' SHA-256 is
	// the input's identity.
	Trace []byte
	// Resume makes Execute restore the newest snapshot in CheckpointDir
	// (see Execute for the one resume rule).
	Resume bool
}

// closeQuiet closes a source, containing a panic from a close path that
// the original fault already broke.
func closeQuiet(src Source) {
	defer func() { _ = recover() }()
	src.Close()
}

// Execute runs a Request and reports whether the returned result
// continued from a snapshot. It is the library's one execution path: the
// only place that builds sources, fills the defaults (MaxInsts from the
// workload's suggested budget, ObsLabel from its suite/name), restores
// snapshots, contains panics (as a typed ErrWorkerPanic) and publishes
// the result's metrics exactly once.
//
// The resume rule: with req.Resume set, Execute restores the newest
// snapshot in CheckpointDir. A snapshot that does not restore — one of
// another request (see Request.identity), another technique's included,
// a corrupt one, or one from a bare Run — is skipped and the run starts
// from zero. A clean result is bit-identical to an uninterrupted Run
// either way.
//
// A request runs once, as asked. A fault that ends the run early (a
// corrupt trace tail, a producer panic under ParallelFrontend, a
// cancellation) is reported in Result.Err beside the partial result; a
// fault that leaves no result (an invalid configuration, a capability
// the input lacks, a contained panic) is the returned error, and
// publishes nothing.
func Execute(req Request) (*Result, bool, error) {
	if (req.Workload == nil) == (req.Trace == nil) {
		return nil, false, simerr.Config("executing request",
			fmt.Errorf("sim: a request needs exactly one input, Workload or Trace"))
	}
	cfg := req.Config
	if cfg.ObsLabel == "" && req.Workload != nil {
		cfg.ObsLabel = req.Workload.Suite + "/" + req.Workload.Name
	}
	res, resumed, err := req.run(&cfg)
	if err != nil {
		return nil, false, err
	}
	cfg.publish(res)
	return res, resumed, nil
}

// run executes the request, restoring the newest snapshot first when
// req.Resume is set. A panic anywhere in the run — a workload build, a
// synchronous producer fault, a policy bug — is recovered into a typed
// ErrWorkerPanic, and the source is torn down. The build resolves
// cfg.MaxInsts, so a snapshot's identity covers the budget that ran.
func (req *Request) run(cfg *Config) (res *Result, resumed bool, err error) {
	var src Source
	defer func() {
		if rec := recover(); rec != nil {
			if src != nil {
				closeQuiet(src)
			}
			res, resumed, err = nil, false, simerr.WorkerPanic("simulation run", rec, debug.Stack())
		}
	}()
	var s *Session
	if req.Resume && cfg.CheckpointDir != "" {
		if snap, _ := checkpoint.Latest(cfg.CheckpointDir); snap != "" {
			if r, rerr := checkpoint.ReadFile(snap); rerr == nil {
				if s, src, err = req.session(cfg); err != nil {
					return nil, false, err
				}
				if s.Restore(r) == nil {
					return s.Run(), true, nil
				}
				// A failed Restore leaves the session partially
				// overwritten: discard it and run from zero.
				closeQuiet(src)
				src = nil
			}
		}
	}
	if s, src, err = req.session(cfg); err != nil {
		return nil, false, err
	}
	return s.Run(), false, nil
}

// session builds a fresh source from the request's input and wires a
// session over it. On error the source is already closed.
func (req *Request) session(cfg *Config) (*Session, Source, error) {
	var src Source
	if w := req.Workload; w != nil {
		inst, err := w.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("sim: building %s/%s: %w", w.Suite, w.Name, err)
		}
		if cfg.MaxInsts == 0 {
			cfg.MaxInsts = inst.SuggestedMaxInsts
		}
		src = NewFunctionalSource(*cfg, inst)
	} else {
		r, err := tracefile.NewReader(bytes.NewReader(req.Trace))
		if err != nil {
			return nil, nil, err
		}
		src = NewTraceSource(r)
	}
	s, err := NewSession(*cfg, src)
	if err != nil {
		closeQuiet(src)
		return nil, nil, err
	}
	s.ident = req.identity(cfg)
	return s, src, nil
}
