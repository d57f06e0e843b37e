package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
)

// TestBatchReportByteIdentical: the lane-size option threads down to
// every core the runner builds, and the rendered report — the
// paper-facing artifact — is byte-for-byte identical between the
// per-instruction and the batched pipeline.
func TestBatchReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment sweep skipped in -short mode")
	}
	run := func(batch int) string {
		var out strings.Builder
		c := core.DefaultConfig()
		c.Batch = batch
		r := NewRunner(Options{
			GAP:  gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 60_000},
			Spec: specproxy.Params{Scale: 0.01, Seed: 99},
			Out:  &out,
			Base: sim.Request{Config: sim.Config{Core: c}},
		})
		for _, exp := range []string{"fig1", "ablation"} {
			if err := r.Run(exp); err != nil {
				t.Fatalf("batch=%d %s: %v", batch, exp, err)
			}
		}
		return out.String()
	}
	perInst := run(1)
	batched := run(0)
	if perInst != batched {
		t.Errorf("report bytes differ between batch=1 and batched pipeline:\n--- per-instruction ---\n%s\n--- batched ---\n%s",
			perInst, batched)
	}
}
