package sim

import (
	"reflect"
	"testing"

	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// stripHost removes the host-dependent fields from a Result so the
// remainder can be compared bit-for-bit.
func stripHost(r *Result) Result {
	n := *r
	n.Wall = 0
	return n
}

// TestBatchSizeBitIdentical: the decoupling-queue lane size is a host
// throughput knob only. Every simulated field of Result — core and
// policy statistics, all cache levels, functional instruction count,
// even the program's captured output — must be identical at any batch
// size, for every technique. Batch=1 drives the consolidated run loop
// down the per-instruction pull pattern, so it doubles as the legacy
// reference.
func TestBatchSizeBitIdentical(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	for _, k := range wrongpath.Kinds() {
		refCfg := Default(k)
		refCfg.Core.Batch = 1
		ref, err := Run(refCfg, w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if ref.Err != nil {
			t.Fatalf("%v: reference run fault: %v", k, ref.Err)
		}
		for _, batch := range []int{0, 3, 64, 256} {
			cfg := Default(k)
			cfg.Core.Batch = batch
			got, err := Run(cfg, w.MustBuild())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(stripHost(got), stripHost(ref)) {
				t.Errorf("%v: batch=%d diverges from per-instruction:\n got  %+v\n want %+v",
					k, batch, stripHost(got), stripHost(ref))
			}
		}
	}
}

// TestRunKindsBatchBitIdentical covers the sweep path the experiments
// layer uses (Execute fanned out per technique): every technique's
// result from one batched sweep equals its per-instruction counterpart.
func TestRunKindsBatchBitIdentical(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	refCfg := Default(wrongpath.NoWP)
	refCfg.Core.Batch = 1
	kinds := wrongpath.Kinds()
	refs := sweep(t, refCfg, w, kinds, 1)
	gots := sweep(t, Default(wrongpath.NoWP), w, kinds, 1)
	for i, k := range kinds {
		if !reflect.DeepEqual(stripHost(gots[i]), stripHost(refs[i])) {
			t.Errorf("%v: batched sweep result diverges from per-instruction", k)
		}
	}
}
