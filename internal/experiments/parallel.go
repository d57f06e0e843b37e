package experiments

import (
	"repro/internal/sim"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// Parallel measures the functional-first decoupling speedup the paper
// describes in §II: "the decoupling of the functional and performance
// simulator enables them to run in parallel. An integrated simulator
// triggers instruction emulation one by one, leading to de facto
// sequential functional and performance simulation." The experiment
// runs the same simulations with the functional frontend synchronous
// (sequential, integrated-style pacing) and in its own goroutine, and
// reports the wall-clock speedup. Simulation results are bit-identical
// either way (asserted).
func (r *Runner) Parallel() error {
	r.printf("PARALLEL FRONTEND: decoupled functional/performance overlap speedup\n\n")
	r.printf("%-10s %-9s %12s %12s %9s\n", "bench", "model", "sync wall", "parallel", "speedup")
	// Deliberate subset of wrongpath.Kinds(): one no-wrong-path baseline,
	// one cheap reconstruction technique, and the expensive emulation
	// reference are enough to show the overlap trend, and every pair
	// here is a timed serial run (Options.Jobs never applies — wall
	// clocks measured under contention are meaningless), so each extra
	// kind costs four timed simulations. Cells alternate synchronous and
	// parallel frontends.
	type row struct {
		name string
		k    wrongpath.Kind
	}
	var rows []row
	var keys []string
	var jobs []func() (*sim.Result, error)
	for _, name := range []string{"bfs", "cc"} {
		w, _ := gap.ByName(name, r.opt.GAP)
		for _, k := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.Conv, wrongpath.WPEmul} {
			rows = append(rows, row{name, k})
			for _, par := range []bool{false, true} {
				cfg := sim.Config{Core: r.opt.Base.Config.Core, WP: k, ParallelFrontend: par}
				keys = append(keys, cacheKey(w, k))
				jobs = append(jobs, func() (*sim.Result, error) { return r.runWith(w, cfg) })
			}
		}
	}
	res := make([]*sim.Result, len(jobs))
	if err := r.runCells(keys, jobs, 1, func(i int, got *sim.Result) { res[i] = got }); err != nil {
		return err
	}
	for i, row := range rows {
		seq, par, name, k := res[2*i], res[2*i+1], row.name, row.k
		if seq.Core.Cycles != par.Core.Cycles {
			r.printf("WARNING: %s/%v parallel results diverge (%d vs %d cycles)\n",
				name, k, seq.Core.Cycles, par.Core.Cycles)
		}
		r.printf("%-10s %-9s %12v %12v %8.2fx\n", name, k,
			seq.Wall.Round(1_000_000), par.Wall.Round(1_000_000),
			float64(seq.Wall)/float64(par.Wall))
	}
	r.printf("\nthe wpemul rows benefit most: the expensive functional wrong-path\n")
	r.printf("emulation overlaps with the performance simulation. when the\n")
	r.printf("functional side is cheap (nowp/conv), channel hand-off overhead can\n")
	r.printf("outweigh the overlap — the paper's speedup presumes a functional\n")
	r.printf("simulator (Pin on real binaries) far costlier than this interpreter.\n")
	return nil
}
