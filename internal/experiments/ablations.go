package experiments

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/wrongpath"
)

// runWith simulates a workload under an arbitrary configuration
// (bypassing the memoization cache, which is keyed on the default
// configuration). The cell runs under the sweep's context, and a
// run-ending fault (a cancellation among them) is an error, as in
// simulate. It inherits nothing else from the base request: no policy
// override, cache or snapshots.
func (r *Runner) runWith(w workloads.Workload, cfg sim.Config) (*sim.Result, error) {
	cfg.Ctx = r.opt.Base.Config.Ctx
	res, _, err := sim.Execute(sim.Request{Config: cfg, Workload: &w})
	if err == nil && res.Err != nil {
		return nil, fmt.Errorf("functional error: %w", res.Err)
	}
	return res, err
}

// runBatch fans independent custom-configuration runs out over the
// batch engine, preserving job order. The ablation sweeps report
// simulation statistics only (no wall clocks), so concurrency cannot
// perturb their output.
func (r *Runner) runBatch(works []workloads.Workload, cfgs []sim.Config) ([]*sim.Result, error) {
	keys := make([]string, len(works))
	jobs := make([]func() (*sim.Result, error), len(works))
	for i := range jobs {
		w, cfg := works[i], cfgs[i]
		keys[i] = cacheKey(w, cfg.WP)
		jobs[i] = func() (*sim.Result, error) { return r.runWith(w, cfg) }
	}
	out := make([]*sim.Result, len(jobs))
	if err := r.runCells(keys, jobs, r.workers(), func(i int, res *sim.Result) { out[i] = res }); err != nil {
		return nil, err
	}
	return out, nil
}

// Ablations reports the design-choice studies DESIGN.md calls out.
func (r *Runner) Ablations() error {
	if err := r.ablationOptimism(); err != nil {
		return err
	}
	if err := r.ablationROB(); err != nil {
		return err
	}
	return r.ablationMemLatency()
}

// ablationOptimism disables conv's independence check — the paper's
// "optimism pitfall": copying addresses that depend on non-converged
// registers guarantees cache hits by construction and biases the
// projection optimistic.
func (r *Runner) ablationOptimism() error {
	works := r.gapByNames("bfs", "cc", "sssp")
	if err := r.prefetch(works, []wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul}); err != nil {
		return err
	}
	looseCfgs := make([]sim.Config, len(works))
	for i := range looseCfgs {
		looseCfgs[i] = sim.Config{Core: r.opt.Base.Config.Core, WP: wrongpath.Conv,
			PolicyFactory: func() wrongpath.Policy {
				p := wrongpath.NewConv()
				p.DisableIndependenceCheck = true
				return p
			}}
	}
	looseRes, err := r.runBatch(works, looseCfgs)
	if err != nil {
		return err
	}

	r.printf("ABLATION: conv independence check (the optimism pitfall, §III-C)\n\n")
	r.printf("%-8s %12s %12s %14s %14s\n", "bench", "conv err", "no-check err", "conv recover", "no-check recover")
	for i, w := range works {
		ref, err := r.result(w, wrongpath.WPEmul)
		if err != nil {
			return err
		}
		conv, err := r.result(w, wrongpath.Conv)
		if err != nil {
			return err
		}
		loose := looseRes[i]
		recovered := func(r *sim.Result) float64 {
			if r.Core.WPLoads == 0 {
				return 0
			}
			return float64(r.Core.WPLoadsWithAddr) / float64(r.Core.WPLoads)
		}
		r.printf("%-8s %12s %12s %13.0f%% %13.0f%%\n", w.Name,
			pct(sim.Error(conv, ref)), pct(sim.Error(loose, ref)),
			100*recovered(conv), 100*recovered(loose))
	}
	r.printf("\nwithout the check more addresses are \"recovered\", but some are wrong:\n")
	r.printf("they turn future correct-path accesses into by-construction hits,\n")
	r.printf("pushing the projection optimistic relative to wpemul.\n\n")
	return nil
}

// ablationROB sweeps the ROB size: deeper speculation means more
// wrong-path instructions and a larger no-wrong-path modeling error
// (the paper's "larger reorder buffers increase the amount of
// speculative instructions" trend argument).
func (r *Runner) ablationROB() error {
	robs := []int{128, 256, 512}
	works, cfgs := r.sweepPairs(len(robs), func(i int) sim.Config {
		cfg := r.opt.Base.Config.Core
		cfg.ROBSize = robs[i]
		return sim.Config{Core: cfg}
	})
	results, err := r.runBatch(works, cfgs)
	if err != nil {
		return err
	}

	r.printf("ABLATION: ROB size vs no-wrong-path error (bfs)\n\n")
	r.printf("%-8s %12s %12s\n", "ROB", "nowp err", "WP insts/CP")
	for i, rob := range robs {
		nowp, ref := results[2*i], results[2*i+1]
		r.printf("%-8d %12s %11.0f%%\n", rob,
			pct(sim.Error(nowp, ref)), 100*ref.Core.WPFraction())
	}
	r.printf("\n")
	return nil
}

// ablationMemLatency sweeps the memory latency — the Cain (70 cycles,
// "wrong path negligible") versus Mutlu (250+, "up to 10% error")
// disagreement the paper resolves: branch-resolution time, and thus
// time spent on the wrong path, scales with miss latency. The sweep
// disables the DRAM bandwidth cap: the latency effect is a
// latency-bound phenomenon, and under a bandwidth cap longer latencies
// instead saturate the channel and mask it (bandwidth-bound wrong-path
// prefetching has nowhere to put its prefetches).
func (r *Runner) ablationMemLatency() error {
	lats := []int{70, 230, 400}
	works, cfgs := r.sweepPairs(len(lats), func(i int) sim.Config {
		cfg := r.opt.Base.Config.Core
		cfg.Hierarchy.MemLatency = lats[i]
		cfg.Hierarchy.MemGapCycles = 0
		return sim.Config{Core: cfg}
	})
	results, err := r.runBatch(works, cfgs)
	if err != nil {
		return err
	}

	r.printf("ABLATION: memory latency vs no-wrong-path error (bfs, unlimited DRAM bandwidth)\n\n")
	r.printf("%-10s %12s %12s\n", "mem cycles", "nowp err", "WP insts/CP")
	for i, lat := range lats {
		nowp, ref := results[2*i], results[2*i+1]
		r.printf("%-10d %12s %11.0f%%\n", lat,
			pct(sim.Error(nowp, ref)), 100*ref.Core.WPFraction())
	}
	return nil
}

// sweepPairs lays out a bfs sweep of n configuration points as
// (nowp, wpemul) job pairs: index 2i is point i under NoWP, 2i+1 the
// wpemul reference.
func (r *Runner) sweepPairs(n int, point func(i int) sim.Config) ([]workloads.Workload, []sim.Config) {
	w := r.gapByNames("bfs")[0]
	works := make([]workloads.Workload, 0, 2*n)
	cfgs := make([]sim.Config, 0, 2*n)
	for i := 0; i < n; i++ {
		for _, k := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.WPEmul} {
			cfg := point(i)
			cfg.WP = k
			works = append(works, w)
			cfgs = append(cfgs, cfg)
		}
	}
	return works, cfgs
}
