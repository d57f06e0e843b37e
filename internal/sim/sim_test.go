package sim

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// TestRunAllTechniques runs one branch-heavy GAP kernel under all four
// wrong-path techniques end to end and checks the structural properties
// each technique must exhibit.
func TestRunAllTechniques(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	results := map[wrongpath.Kind]*Result{}
	for i, r := range sweep(t, Default(wrongpath.NoWP), w, wrongpath.Kinds(), 1) {
		results[wrongpath.Kinds()[i]] = r
	}
	for k, r := range results {
		if r.Err != nil {
			t.Fatalf("%v: functional error: %v", k, r.Err)
		}
		if r.Core.Instructions == 0 || r.Core.Cycles == 0 {
			t.Fatalf("%v: empty simulation: %+v", k, r.Core)
		}
		ipc := r.IPC()
		if ipc <= 0 || ipc > 8 {
			t.Fatalf("%v: implausible IPC %f", k, ipc)
		}
		t.Logf("%v: insts=%d cycles=%d IPC=%.3f mispredicts=%d wpFetched=%d wpExecuted=%d",
			k, r.Core.Instructions, r.Core.Cycles, ipc,
			r.Core.Mispredicts, r.Core.WPFetched, r.Core.WPExecuted)
	}

	// All techniques must retire the same correct-path instructions.
	base := results[wrongpath.NoWP].Core.Instructions
	for k, r := range results {
		if r.Core.Instructions != base {
			t.Errorf("%v retired %d instructions, nowp retired %d", k, r.Core.Instructions, base)
		}
	}

	if got := results[wrongpath.NoWP].Core.WPFetched; got != 0 {
		t.Errorf("nowp fetched %d wrong-path instructions, want 0", got)
	}
	for _, k := range []wrongpath.Kind{wrongpath.InstRec, wrongpath.Conv, wrongpath.WPEmul} {
		if results[k].Core.WPFetched == 0 {
			t.Errorf("%v fetched no wrong-path instructions", k)
		}
	}

	conv := results[wrongpath.Conv]
	if conv.Policy.ConvChecked == 0 {
		t.Error("conv: no convergence checks ran")
	}
	if conv.Policy.ConvDetected == 0 {
		t.Error("conv: no convergence detected (BFS inner loops should converge)")
	}
	if conv.Policy.WPAddrRecovered == 0 {
		t.Error("conv: no addresses recovered")
	}
	if conv.Policy.WPAddrRecovered > conv.Policy.WPMemOps {
		t.Error("conv: recovered more addresses than wrong-path memory ops")
	}

	emul := results[wrongpath.WPEmul]
	if emul.WPEmulatedPaths == 0 || emul.WPEmulatedInsts == 0 {
		t.Error("wpemul: frontend emulated no wrong paths")
	}
	// The frontend's predictor copy must detect exactly the
	// mispredictions the core detects.
	if emul.WPEmulatedPaths != emul.Core.Mispredicts {
		t.Errorf("wpemul: frontend emulated %d paths but core saw %d mispredicts",
			emul.WPEmulatedPaths, emul.Core.Mispredicts)
	}
	// Wrong-path loads in wpemul carry addresses and must reach the
	// data hierarchy.
	if emul.L1D.Wrong.Accesses == 0 {
		t.Error("wpemul: no wrong-path data-cache accesses")
	}
	// InstRec never knows addresses, so it must never touch the data
	// hierarchy on the wrong path.
	if got := results[wrongpath.InstRec].L1D.Wrong.Accesses; got != 0 {
		t.Errorf("instrec: %d wrong-path data-cache accesses, want 0", got)
	}
	// But it does touch the instruction cache on the wrong path.
	if results[wrongpath.InstRec].L1I.Wrong.Accesses == 0 {
		t.Error("instrec: no wrong-path instruction-cache accesses")
	}
}

// TestDeterminism: identical configurations must produce bit-identical
// results.
func TestDeterminism(t *testing.T) {
	w := gap.CC(gap.TestParams())
	var cycles [2]uint64
	for i := range cycles {
		r, err := Run(Default(wrongpath.Conv), w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		cycles[i] = r.Core.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("nondeterministic: %d vs %d cycles", cycles[0], cycles[1])
	}
}

// TestPerfectPredictionMode: with the oracle predictor (a mode only a
// functional-first simulator can offer, per the paper's flexibility
// argument) there are no mispredictions, no wrong path, and performance
// is strictly better than with a real predictor.
func TestPerfectPredictionMode(t *testing.T) {
	w := gap.BFS(gap.TestParams())

	real, err := Run(Default(wrongpath.NoWP), w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(wrongpath.WPEmul)
	cfg.Core.BranchPred.Predictor = branch.PredictorPerfect
	oracle, err := Run(cfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Core.Mispredicts != 0 {
		t.Errorf("oracle mispredicted %d times", oracle.Core.Mispredicts)
	}
	if oracle.Core.WPFetched != 0 {
		t.Errorf("oracle fetched %d wrong-path instructions", oracle.Core.WPFetched)
	}
	if oracle.WPEmulatedPaths != 0 {
		t.Errorf("oracle frontend emulated %d wrong paths", oracle.WPEmulatedPaths)
	}
	// The fair comparison is against nowp (same zero wrong-path cache
	// activity): removing mispredict stalls can only help. Note that the
	// oracle can legitimately lose to wpemul with a *real* predictor —
	// on miss-bound kernels, wrong-path execution is an accidental
	// runahead prefetcher whose benefit exceeds the mispredict penalty,
	// echoing Mutlu et al.'s observation that wrong-path references are
	// often beneficial.
	if oracle.IPC() <= real.IPC() {
		t.Errorf("oracle IPC %.3f not above nowp real-predictor IPC %.3f", oracle.IPC(), real.IPC())
	}
}

// TestTAGEPredictorRuns: the TAGE organization works end to end and
// stays in sync between core and wpemul frontend.
func TestTAGEPredictorRuns(t *testing.T) {
	w := gap.CC(gap.TestParams())
	cfg := Default(wrongpath.WPEmul)
	cfg.Core.BranchPred.Predictor = branch.PredictorTAGE
	res, err := Run(cfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if res.WPEmulatedPaths != res.Core.Mispredicts {
		t.Errorf("TAGE: frontend emulated %d paths, core saw %d mispredicts — predictor copies out of sync",
			res.WPEmulatedPaths, res.Core.Mispredicts)
	}
}

// TestWarmupImprovesSample: functional warming fills caches, TLBs and
// predictor before the measured window, so the warmed sample projects
// higher IPC than a cold one — and warmup instructions never count in
// the measured statistics.
func TestWarmupImprovesSample(t *testing.T) {
	w := gap.CC(gap.TestParams())

	cold := Default(wrongpath.NoWP)
	cold.MaxInsts = 30_000
	coldRes, err := Run(cold, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	warm := cold
	warm.WarmupInsts = 60_000
	warmRes, err := Run(warm, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if warmRes.Core.Instructions != coldRes.Core.Instructions {
		t.Fatalf("warmup leaked into measured instructions: %d vs %d",
			warmRes.Core.Instructions, coldRes.Core.Instructions)
	}
	if warmRes.IPC() <= coldRes.IPC() {
		t.Errorf("warmed IPC %.3f not above cold IPC %.3f", warmRes.IPC(), coldRes.IPC())
	}
	// The two windows cover different code, but the warmed one must not
	// report the cold window's compulsory misses.
	if warmRes.L1D.Correct.MissRate() >= coldRes.L1D.Correct.MissRate() {
		t.Errorf("warmed L1D miss rate %.3f not below cold %.3f",
			warmRes.L1D.Correct.MissRate(), coldRes.L1D.Correct.MissRate())
	}
}

// TestErrorMetric checks the sign convention of the accuracy metric.
func TestErrorMetric(t *testing.T) {
	slow := &Result{}
	slow.Core.Instructions = 1000
	slow.Core.Cycles = 2000 // IPC 0.5
	fast := &Result{}
	fast.Core.Instructions = 1000
	fast.Core.Cycles = 1000 // IPC 1.0
	if e := Error(slow, fast); e != -0.5 {
		t.Fatalf("Error(slow, fast) = %f, want -0.5", e)
	}
	if e := Error(fast, fast); e != 0 {
		t.Fatalf("Error(fast, fast) = %f, want 0", e)
	}
	// Zero-denominator audit: an empty reference (zero IPC) must yield a
	// clean zero error, not NaN/Inf.
	empty := &Result{}
	if e := Error(fast, empty); e != 0 {
		t.Fatalf("Error(fast, empty-ref) = %f, want 0", e)
	}
	if e := Error(empty, empty); e != 0 {
		t.Fatalf("Error(empty, empty) = %f, want 0", e)
	}
}
