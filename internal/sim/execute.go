package sim

import (
	"bytes"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/checkpoint"
	"repro/internal/simerr"
	"repro/internal/tracefile"
	"repro/internal/workloads"
	"repro/internal/wrongpath"
)

// Request is one simulation to execute: a Config plus exactly one input.
// Execute builds a fresh Source from the input for every attempt, since a
// run consumes its source's state.
type Request struct {
	// Config is the simulation to run. (Config.Trace is the event-trace
	// sink; the Trace field below is an input.)
	Config Config
	// Workload is the live-functional input; a fresh instance is built
	// for every attempt.
	Workload *workloads.Workload
	// Trace is the recorded-trace input: a trace file's bytes, as
	// tracefile.Record writes them. Every attempt replays a fresh
	// tracefile.Reader from the first record, and the bytes' SHA-256 is
	// the input's identity.
	Trace []byte
	// Resume makes the first attempt restore the newest snapshot in
	// CheckpointDir (see Execute for the one resume rule).
	Resume bool
	// Wrap, when non-nil, replaces each attempt's source — the hook for
	// fault injectors and stream filters. It receives the attempt's
	// Config, so it can target one workload (ObsLabel) or one ladder rung
	// (WP). Wrapped sources cannot checkpoint.
	Wrap func(src Source, cfg Config) Source
}

// DegradePolicy configures the graceful-degradation ladder: on a
// recoverable fault, a job is re-run one technique rung down
// (wpemul→conv→instrec→nowp, see wrongpath.Downgrade) instead of
// failing the whole sweep. The zero value disables the ladder.
type DegradePolicy struct {
	// MaxRetries bounds the ladder descents per job; each retry costs
	// one full re-simulation. 0 disables degradation entirely.
	MaxRetries int
}

// Enabled reports whether the ladder is armed.
func (p DegradePolicy) Enabled() bool { return p.MaxRetries > 0 }

// Recoverable reports whether a fault class is survivable one rung down
// the ladder: a capability the lower technique does not need
// (ErrUnsupported) or a contained crash worth one more attempt
// (ErrWorkerPanic). Trace corruption is NOT recoverable by re-running —
// the same bytes fail again — and is handled by keeping the valid
// prefix instead (see Execute).
func Recoverable(err error) bool {
	return errors.Is(err, simerr.ErrUnsupported) ||
		errors.Is(err, simerr.ErrWorkerPanic)
}

// runFault extracts the typed fault of an attempt: a returned error, or
// a classified simerr fault the run recorded in Result.Err. A plain
// functional-simulation error in Result.Err is not a fault — it is the
// pre-existing "program ended abnormally" channel and passes through
// untouched.
func runFault(res *Result, err error) error {
	if err != nil {
		return err
	}
	if res != nil && res.Err != nil {
		var f *simerr.Fault
		if errors.As(res.Err, &f) {
			return res.Err
		}
	}
	return nil
}

// closeQuiet closes a source, containing a panic from a close path that
// the original fault already broke.
func closeQuiet(src Source) {
	defer func() { _ = recover() }()
	src.Close()
}

// Execute runs a Request and reports whether the returned result
// continued from a snapshot. It is the library's one execution path: the
// only place that builds and rebuilds sources, fills the defaults
// (MaxInsts from the workload's suggested budget, ObsLabel from its
// suite/name), restores snapshots, runs the degradation ladder, contains
// panics (as a typed ErrWorkerPanic) and publishes the accepted result's
// metrics exactly once.
//
// The resume rule: an attempt that resumes — the first one when
// req.Resume is set, every ladder retry always — restores the newest
// snapshot in CheckpointDir. A snapshot that does not restore (written
// under another configuration, corrupt, or a higher ladder rung's
// wpemul state) is skipped and the attempt runs from zero; so is one of
// another request (see Request.identity) or from a bare Run. A clean
// result is bit-identical to an uninterrupted Run either way.
//
// Without the ladder, Execute behaves like Run: a run-ending fault is
// reported in Result.Err. With Config.Degrade armed, a recoverable fault
// re-runs the job one rung down, at most Degrade.MaxRetries times; the
// final Result records the descent (WP is the rung that ran, RequestedWP
// the rung asked for, Degraded/DegradeFault the annotation). Trace
// corruption keeps the valid prefix as an annotated partial result
// instead of re-running the same bytes. Unrecoverable faults, exhausted
// retries and a floor with no rung below return the typed fault. Every
// descent increments sim_degrade_retries_total under the requested
// technique; failed rungs publish no aggregate counters.
func Execute(req Request) (*Result, bool, error) {
	if (req.Workload == nil) == (req.Trace == nil) {
		return nil, false, simerr.Config("executing request",
			fmt.Errorf("sim: a request needs exactly one input, Workload or Trace"))
	}
	cfg := req.Config
	if cfg.ObsLabel == "" && req.Workload != nil {
		cfg.ObsLabel = req.Workload.Suite + "/" + req.Workload.Name
	}
	requested := cfg.WP
	res, resumed, err := req.attempt(&cfg, req.Resume)
	fault := runFault(res, err)
	if fault == nil || !cfg.Degrade.Enabled() {
		if err != nil {
			return nil, false, err
		}
		cfg.publish(res)
		return res, resumed, nil
	}
	for retries := 0; ; retries++ {
		if errors.Is(fault, simerr.ErrTraceCorrupt) && res != nil {
			res.RequestedWP = requested
			res.Degraded = true
			res.DegradeFault = simerr.Degraded(requested.String(), cfg.WP.String()+" (partial prefix)", fault)
			cfg.publish(res)
			return res, resumed, nil
		}
		if retries >= cfg.Degrade.MaxRetries || !Recoverable(fault) {
			return nil, false, fault
		}
		down, ok := wrongpath.Downgrade(cfg.WP)
		if !ok {
			return nil, false, fault
		}
		cfg.noteRetry(requested.String())
		cfg.WP = down
		res, resumed, err = req.attempt(&cfg, true)
		if next := runFault(res, err); next != nil {
			fault = next
			continue
		}
		res.RequestedWP = requested
		res.Degraded = true
		res.DegradeFault = simerr.Degraded(requested.String(), down.String(), fault)
		cfg.publish(res)
		return res, resumed, nil
	}
}

// attempt runs one rung, restoring the newest snapshot first when
// restore is set. A panic anywhere in the attempt — a workload build, a
// synchronous producer fault, a policy bug — is recovered into a typed
// ErrWorkerPanic so the ladder can decide, and the source is torn down.
// The first build resolves cfg.MaxInsts, so later rungs (and their
// snapshot fingerprints) see the same budget.
func (req *Request) attempt(cfg *Config, restore bool) (res *Result, resumed bool, err error) {
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
	if restore && cfg.CheckpointDir != "" {
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

// session builds a fresh source from the request's input, wraps it, and
// wires a session over it. On error the source is already closed.
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
	if req.Wrap != nil {
		src = req.Wrap(src, *cfg)
	}
	s, err := NewSession(*cfg, src)
	if err != nil {
		closeQuiet(src)
		return nil, nil, err
	}
	s.ident = req.identity(cfg, true)
	return s, src, nil
}
