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

	"repro/internal/sim"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// JobSpec is the submit-time description of one simulation job (the
// POST /jobs body). The zero value of every optional field selects the
// same default the CLIs use, so a spec translates to exactly the
// sim.Request a direct wpsim invocation with the same flags builds.
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

	// Workload input-shape overrides (catalog.Params).
	N      int     `json:"n,omitempty"`
	Degree int     `json:"degree,omitempty"`
	Kron   bool    `json:"kron,omitempty"`
	Grid   bool    `json:"grid,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
	Scale  float64 `json:"scale,omitempty"`

	// TimeoutMS cancels the job this long after it starts running (0 =
	// no deadline). Wired through sim.Config.Ctx: the run stops at the
	// next lane boundary with a typed cancellation fault.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// CheckpointEvery overrides the server's snapshot interval for this
	// job, in retired instructions (0 = the server default).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
}

// request translates the spec into the sim.Request a direct wpsim run
// of the same flags builds; its error is the spec's validation error (an
// unknown workload or technique, or a negative knob). Serving-layer
// concerns (context, metrics, checkpoint directory) are layered on by
// the caller and never change simulated results.
func (sp JobSpec) request() (sim.Request, error) {
	w, err := catalog.Find(sp.Suite, sp.Bench, catalog.Params{
		N: sp.N, Degree: sp.Degree, Kron: sp.Kron, Grid: sp.Grid, Seed: sp.Seed, Scale: sp.Scale})
	if err != nil {
		return sim.Request{}, err
	}
	kind, ok := wrongpath.Conv, true
	if sp.WP != "" {
		kind, ok = wrongpath.ParseKind(sp.WP)
	}
	switch {
	case !ok:
		return sim.Request{}, fmt.Errorf("unknown wrong-path technique %q (have %v)", sp.WP, wrongpath.Names())
	case sp.TimeoutMS < 0:
		return sim.Request{}, fmt.Errorf("negative timeout_ms")
	}
	cfg := sim.Default(kind)
	cfg.MaxInsts = sp.MaxInsts
	cfg.WarmupInsts = sp.WarmupInsts
	return sim.Request{Config: cfg, Workload: &w}, nil
}

// Fingerprint is the spec's content address: the fingerprint of its
// request ("" for an invalid spec), so {n:0} and {n:<default>} share
// one address, and TimeoutMS and CheckpointEvery are outside it.
func (sp JobSpec) Fingerprint() string {
	req, _ := sp.request()
	return req.Fingerprint()
}

// canonicalDomain prefixes request fingerprints in the result cache, so
// a store of another format (wpexp's) never decodes its entries.
const canonicalDomain = "wpserved.canonical.v3-"

// cacheKey is the result-cache and coalescing key ("" = unaddressable).
func cacheKey(req sim.Request) string {
	if fp := req.Fingerprint(); fp != "" {
		return canonicalDomain + fp
	}
	return ""
}

// RunDirect runs the spec exactly as a worker would — the same
// request(), through sim.Execute — minus every serving concern: no
// context, no shared registry, no checkpoints. It is the conformance
// oracle: CanonicalResult of a job's result must be byte-identical to
// CanonicalResult of RunDirect on the same spec.
func RunDirect(spec JobSpec) (*sim.Result, error) {
	req, err := spec.request()
	if err != nil {
		return nil, err
	}
	res, _, err := sim.Execute(req)
	return res, err
}
