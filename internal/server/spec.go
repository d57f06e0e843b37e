// Package server is the long-lived serving layer over the simulator:
// wpserved accepts simulation jobs over HTTP/JSON, runs them on a
// bounded worker pool, and exposes their lifecycle — submit, status,
// result, cancel — plus a deterministic metrics snapshot and a health
// probe.
//
// The package's one non-negotiable invariant is conformance: a job's
// result is byte-identical to a direct sim run of the same
// specification. Everything the serving layer adds — concurrency,
// admission control, per-job timeouts, crash-safe checkpoints, drain
// and resume across daemon restarts — rides on the sim layer's existing
// determinism guarantees and must never perturb simulated state.
// RunDirect is the conformance oracle the acceptance tests diff
// against.
package server

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/specfp"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// JobSpec is the submit-time description of one simulation job (the
// POST /jobs body). The zero value of every optional field selects the
// same default the CLIs use, so a spec translates to exactly the
// sim.Config a direct wpsim invocation with the same flags builds.
type JobSpec struct {
	// Suite/Bench name the workload (see internal/workloads/catalog).
	Suite string `json:"suite"`
	Bench string `json:"bench"`
	// WP is the wrong-path technique name ("" = conv).
	WP string `json:"wp,omitempty"`
	// MaxInsts caps the simulated correct-path instructions (0 = the
	// workload's suggested budget).
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// WarmupInsts functionally warms state before detailed simulation.
	WarmupInsts uint64 `json:"warmup_insts,omitempty"`
	// Batch is the decoupling-queue lane size (0 = default; results are
	// identical at any size).
	Batch int `json:"batch,omitempty"`

	// Workload input-shape overrides (catalog.Params).
	N      int     `json:"n,omitempty"`
	Degree int     `json:"degree,omitempty"`
	Kron   bool    `json:"kron,omitempty"`
	Grid   bool    `json:"grid,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	Scale  float64 `json:"scale,omitempty"`

	// WatchdogMS arms the stall watchdog with this budget (0 =
	// disabled).
	WatchdogMS int64 `json:"watchdog_ms,omitempty"`
	// Degrade arms the graceful-degradation ladder: on a recoverable
	// fault the job re-runs one technique rung down and its status
	// reports the descent (the job-level mirror of exit code 3).
	Degrade bool `json:"degrade,omitempty"`
	// MaxRetries bounds ladder descents (0 with Degrade = the CLI
	// default, 2).
	MaxRetries int `json:"max_retries,omitempty"`
	// TimeoutMS cancels the job this long after it starts running (0 =
	// no deadline). Wired through sim.Config.Ctx: the run stops at the
	// next lane boundary with a typed cancellation fault.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CheckpointEvery overrides the server's snapshot interval for this
	// job, in retired instructions (0 = the server default).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

// normalized fills the CLI-parity defaults into the optional fields.
func (sp JobSpec) normalized() JobSpec {
	if sp.WP == "" {
		sp.WP = wrongpath.Conv.String()
	}
	if sp.Degrade && sp.MaxRetries == 0 {
		sp.MaxRetries = 2
	}
	return sp
}

// params extracts the workload input-shape overrides.
func (sp JobSpec) params() catalog.Params {
	return catalog.Params{N: sp.N, Degree: sp.Degree, Kron: sp.Kron, Grid: sp.Grid, Seed: sp.Seed, Scale: sp.Scale}
}

// Validate rejects a spec the workers could not run: an unknown
// workload, an unknown technique, or negative knobs.
func (sp JobSpec) Validate() error {
	sp = sp.normalized()
	if _, err := catalog.Find(sp.Suite, sp.Bench, sp.params()); err != nil {
		return err
	}
	if _, ok := wrongpath.ParseKind(sp.WP); !ok {
		return fmt.Errorf("unknown wrong-path technique %q (have %v)", sp.WP, wrongpath.Names())
	}
	if sp.WatchdogMS < 0 || sp.TimeoutMS < 0 {
		return fmt.Errorf("negative watchdog_ms/timeout_ms")
	}
	if sp.MaxRetries < 0 || sp.Batch < 0 {
		return fmt.Errorf("negative max_retries/batch")
	}
	return nil
}

// simConfig translates the (normalized) spec into the sim.Config a
// direct CLI run of the same flags would build. Serving-layer concerns
// (context, metrics, checkpoint directory) are layered on by the
// caller and never change simulated results.
func (sp JobSpec) simConfig() (sim.Config, error) {
	kind, ok := wrongpath.ParseKind(sp.WP)
	if !ok {
		return sim.Config{}, fmt.Errorf("unknown wrong-path technique %q (have %v)", sp.WP, wrongpath.Names())
	}
	cfg := sim.Default(kind)
	cfg.MaxInsts = sp.MaxInsts
	cfg.WarmupInsts = sp.WarmupInsts
	cfg.Core.Batch = sp.Batch
	cfg.Watchdog = time.Duration(sp.WatchdogMS) * time.Millisecond
	if sp.Degrade {
		cfg.Degrade = sim.DegradePolicy{MaxRetries: sp.MaxRetries}
	}
	return cfg, nil
}

// Fingerprint is the spec's content address: the specfp hash of every
// field that can influence the canonical result bytes. The exclusions
// mirror the checkpoint fingerprint's argument (sim.Config.Fingerprint):
// TimeoutMS only decides whether a run is cut short (a canceled run
// never produces a result document), Batch is the decoupling-queue lane
// size (bit-identical at any size), and CheckpointEvery only changes
// where snapshots fall (resume chains are bit-identical). Everything
// else — including the watchdog and degradation knobs, which can steer
// a run down the technique ladder — is part of the identity. Two specs
// with equal fingerprints therefore hold equal canonical bytes, which
// is what lets the result cache and submit coalescing share them.
func (sp JobSpec) Fingerprint() string {
	sp = sp.normalized()
	b := specfp.New("wpserved/JobSpec/v1")
	b.String("suite", sp.Suite)
	b.String("bench", sp.Bench)
	b.String("wp", sp.WP)
	b.Uint64("max_insts", sp.MaxInsts)
	b.Uint64("warmup_insts", sp.WarmupInsts)
	b.Int("n", sp.N)
	b.Int("degree", sp.Degree)
	b.Bool("kron", sp.Kron)
	b.Bool("grid", sp.Grid)
	b.Uint64("seed", sp.Seed)
	b.Float("scale", sp.Scale)
	b.Int64("watchdog_ms", sp.WatchdogMS)
	b.Bool("degrade", sp.Degrade)
	b.Int("max_retries", sp.MaxRetries)
	// Fold in the sim-layer configuration fingerprint so a change to the
	// simulated core defaults invalidates old content addresses instead
	// of serving their bytes.
	if cfg, err := sp.simConfig(); err == nil {
		b.String("sim_config", cfg.Fingerprint())
	} else {
		b.String("sim_config_error", err.Error())
	}
	return b.Sum()
}

// runSpec is the one execution path for a spec: both the workers and
// the RunDirect oracle go through it, so a served job cannot diverge
// from a direct run by construction. mod layers the serving-only
// concerns (context, metrics registry, checkpoint directory, resume)
// onto the request; nil runs bare. The returned bool reports whether
// the run resumed from a snapshot.
func runSpec(spec JobSpec, mod func(*sim.Request)) (*sim.Result, bool, error) {
	spec = spec.normalized()
	cfg, err := spec.simConfig()
	if err != nil {
		return nil, false, err
	}
	w, err := catalog.Find(spec.Suite, spec.Bench, spec.params())
	if err != nil {
		return nil, false, err
	}
	req := sim.Request{Config: cfg, Workload: &w}
	if mod != nil {
		mod(&req)
	}
	return sim.Execute(req)
}

// RunDirect runs the spec exactly as a worker would, minus every
// serving concern — no context, no shared registry, no checkpoints. It
// is the conformance oracle: CanonicalResult of a job's result must be
// byte-identical to CanonicalResult of RunDirect on the same spec.
func RunDirect(spec JobSpec) (*sim.Result, error) {
	res, _, err := runSpec(spec, nil)
	return res, err
}
