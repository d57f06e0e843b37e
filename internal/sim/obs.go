package sim

import (
	"repro/internal/obs"
)

// This file is the sim layer's half of the observability contract (see
// internal/obs): sessions carry a live *obs.View for sampling hooks,
// and the two entry points — Run and Execute — publish a result's
// aggregate counters exactly once per accepted result. The
// degradation ladder may run the same cell several times; only the
// result a caller actually receives is counted, so sweep totals (e.g.
// WPGenerated) never double-count retry rungs.

// obsEnabled reports whether any observability output is configured.
func (c Config) obsEnabled() bool { return c.Metrics != nil || c.Trace != nil }

// view builds the per-run instrumentation view, nil when disabled (so
// hot-path hooks reduce to one nil check).
func (c Config) view() *obs.View {
	if !c.obsEnabled() {
		return nil
	}
	return obs.NewView(c.Metrics, c.Trace, c.ObsLabel, c.WP.String())
}

// publish records an accepted result's aggregate counters, labeled by
// the technique that actually ran (after any ladder descent). Callers
// must invoke it at most once per result a caller receives.
func (c Config) publish(r *Result) {
	if c.Metrics == nil || r == nil {
		return
	}
	reg, wl := c.Metrics, c.ObsLabel
	tech := r.WP.String()
	reg.Counter(obs.Key("sim_runs_total", wl, tech)).Inc()
	reg.Counter(obs.Key("sim_instructions_total", wl, tech)).Add(r.Core.Instructions)
	reg.Counter(obs.Key("sim_cycles_total", wl, tech)).Add(r.Core.Cycles)
	reg.Counter(obs.Key("sim_mispredicts_total", wl, tech)).Add(r.Core.Mispredicts)
	reg.Counter(obs.Key("sim_wp_fetched_total", wl, tech)).Add(r.Core.WPFetched)
	reg.Counter(obs.Key("sim_wp_executed_total", wl, tech)).Add(r.Core.WPExecuted)
	reg.Counter(obs.Key("wrongpath_generated_total", wl, tech)).Add(r.Policy.WPGenerated)
	reg.Counter(obs.Key("conv_checked_total", wl, tech)).Add(r.Policy.ConvChecked)
	reg.Counter(obs.Key("conv_detected_total", wl, tech)).Add(r.Policy.ConvDetected)
	if r.Degraded {
		// Labeled by the *requested* technique: degradation rates are a
		// property of what was asked for, not of the rung that rescued it.
		reg.Counter(obs.Key("sim_degraded_runs_total", wl, r.RequestedWP.String())).Inc()
	}
}

// noteRetry counts one degradation-ladder descent (labeled by the
// requested technique) the moment it is decided, so abandoned ladders
// still show their retry cost.
func (c Config) noteRetry(requested string) {
	if c.Metrics == nil {
		return
	}
	c.Metrics.Counter(obs.Key("sim_degrade_retries_total", c.ObsLabel, requested)).Inc()
}
