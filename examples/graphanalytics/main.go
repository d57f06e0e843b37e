// Graph analytics: run a GAP kernel (BFS by default) on a generated
// graph under all five wrong-path techniques and report accuracy,
// speed, and the convergence-technique internals.
//
//	go run ./examples/graphanalytics
//	go run ./examples/graphanalytics -bench sssp -n 65536 -kron
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/sim"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

func main() {
	bench := flag.String("bench", "bfs", "GAP kernel: bc bfs cc pr sssp tc")
	n := flag.Int("n", 1<<16, "graph vertices")
	degree := flag.Int("degree", 8, "average degree")
	kron := flag.Bool("kron", false, "Kronecker (RMAT) generator instead of uniform")
	flag.Parse()

	params := gap.Params{N: *n, Degree: *degree, Seed: 42, Kron: *kron}
	w, ok := gap.ByName(*bench, params)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q (have %v)\n", *bench, gap.Names())
		os.Exit(1)
	}

	fmt.Printf("gap/%s on a %d-vertex graph (degree %d, kron=%v)\n\n", *bench, *n, *degree, *kron)
	fmt.Printf("%-9s %8s %12s %10s %8s %10s\n", "model", "IPC", "cycles", "WP insts", "error", "wall")

	kinds := wrongpath.Kinds()
	results := map[wrongpath.Kind]*sim.Result{}
	for _, kind := range kinds {
		res, _, err := sim.Execute(sim.Request{Config: sim.Default(kind), Workload: &w})
		if err != nil {
			log.Fatal(err)
		}
		results[kind] = res
	}
	ref := results[wrongpath.WPEmul]
	for _, kind := range kinds {
		res := results[kind]
		fmt.Printf("%-9s %8.3f %12d %10d %+7.1f%% %10v\n",
			kind, res.IPC(), res.Core.Cycles, res.Core.WPExecuted,
			100*sim.Error(res, ref), res.Wall.Round(1_000_000))
	}

	conv := results[wrongpath.Conv]
	fmt.Printf("\nconvergence exploitation internals (paper Table III):\n")
	fmt.Printf("  branch misses with convergence found:  %.0f%%\n", 100*conv.Policy.ConvFrac())
	fmt.Printf("  average distance to convergence point: %.1f instructions\n", conv.Policy.ConvDist())
	if conv.Core.WPLoads > 0 {
		fmt.Printf("  executed wrong-path loads with recovered address: %.0f%%\n",
			100*float64(conv.Core.WPLoadsWithAddr)/float64(conv.Core.WPLoads))
	}
	if ref.L2.Wrong.Misses > 0 {
		fmt.Printf("  wrong-path L2 misses covered vs wpemul: %.0f%%\n",
			100*float64(conv.L2.Wrong.Misses)/float64(ref.L2.Wrong.Misses))
	}
}
