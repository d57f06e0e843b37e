// Package repro_test benchmarks the simulator and provides one
// testing.B entry point per paper table/figure (the full-scale numbers
// are produced by cmd/wpexp; these benches regenerate the same reports
// at reduced scale so `go test -bench` exercises every experiment
// path), plus microbenchmarks of the simulator components.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/functional"
	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
	"repro/internal/wrongpath"
)

// benchParams are reduced-scale inputs so one benchmark iteration is
// O(100 ms); EXPERIMENTS.md records the full-scale runs.
func benchGAP() gap.Params {
	return gap.Params{N: 4096, Degree: 8, Seed: 42, MaxInsts: 400_000}
}

func benchSpec() specproxy.Params {
	return specproxy.Params{Scale: 0.05, Seed: 1234}
}

func benchRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	return experiments.NewRunner(experiments.Options{
		GAP:  benchGAP(),
		Spec: benchSpec(),
		Out:  io.Discard,
	})
}

// --- one benchmark per paper table/figure ---

func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1NoWPError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4GAP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Fig4GAP(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4SPEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Fig4SPEC(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2WPFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3ConvMetrics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpeedComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Speed(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := benchRunner(b).Ablations(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- simulator throughput per technique (the §V-B speed measurement
// as a micro-scale bench: simulated instructions per second) ---

func benchSimulate(b *testing.B, w workloads.Workload, kind wrongpath.Kind) {
	b.Helper()
	var insts, cycles uint64
	for i := 0; i < b.N; i++ {
		inst := w.MustBuild()
		cfg := sim.Default(kind)
		cfg.MaxInsts = inst.SuggestedMaxInsts
		res, err := sim.Run(cfg, inst)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Core.Instructions
		cycles += res.Core.Cycles
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Msimins/s")
	b.ReportMetric(float64(insts)/float64(cycles), "IPC")
}

func BenchmarkSimulateBFS(b *testing.B) {
	for _, kind := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.InstRec, wrongpath.Conv, wrongpath.ConvResolve, wrongpath.WPEmul} {
		b.Run(kind.String(), func(b *testing.B) {
			benchSimulate(b, gap.BFS(benchGAP()), kind)
		})
	}
}

func BenchmarkSimulateSpecINT(b *testing.B) {
	suite := specproxy.IntSuite(benchSpec())
	for _, kind := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.WPEmul} {
		b.Run(kind.String(), func(b *testing.B) {
			benchSimulate(b, suite[0], kind) // hashloop
		})
	}
}

// --- component microbenchmarks ---

func BenchmarkFunctionalInterpreter(b *testing.B) {
	inst := gap.BFS(benchGAP()).MustBuild()
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	var di trace.DynInst
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		if cpu.Halted() {
			b.StopTimer()
			inst = gap.BFS(benchGAP()).MustBuild()
			cpu = functional.New(inst.Prog, inst.Mem, inst.StackTop)
			b.StartTimer()
		}
		if err := cpu.Step(&di); err != nil {
			b.Fatal(err)
		}
		n++
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()/1e6, "Mins/s")
}

func BenchmarkWrongPathEmulation(b *testing.B) {
	inst := gap.BFS(benchGAP()).MustBuild()
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	// Advance into the kernel.
	if _, err := cpu.Run(1000); err != nil {
		b.Fatal(err)
	}
	target := cpu.PC()
	maxLen := core.DefaultConfig().WPMaxLen()
	buf := make([]trace.DynInst, 0, maxLen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = cpu.AppendWrongPath(buf[:0], target, maxLen)
	}
}

func BenchmarkCacheHierarchyLoad(b *testing.B) {
	h := cache.NewHierarchy(cache.DefaultHierarchyConfig())
	rng := graph.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Load(rng.Next()&0xfffff8, uint64(i), false)
	}
}

func BenchmarkBranchPredictor(b *testing.B) {
	u := branch.New(branch.DefaultConfig())
	rng := graph.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := 0x1000 + (rng.Next()&0xff)*4
		t := u.PredictCond(pc)
		u.UpdateCond(pc, t != (rng.Next()&7 == 0))
	}
}

func BenchmarkGraphGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.Uniform(1<<14, 8, uint64(i+1), true)
		if g.NumEdges() == 0 {
			b.Fatal("empty graph")
		}
	}
}
