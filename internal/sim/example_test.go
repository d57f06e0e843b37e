package sim_test

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// segment is one array of a program's data image.
type segment struct {
	addr uint64
	vals []uint64
}

// program wraps an assembly source and its data image as a workload:
// Build assembles the source against the symbols and returns a fresh
// instance, which is how a custom benchmark reaches sim.Execute.
func program(name, source string, syms map[string]uint64, data ...segment) workloads.Workload {
	return workloads.Workload{Suite: "example", Name: name, Build: func() (*workloads.Instance, error) {
		m := mem.New()
		for _, d := range data {
			m.WriteUint64Slice(d.addr, d.vals)
		}
		prog, err := asm.Assemble(source, asm.WithBase(workloads.StandardCodeBase), asm.WithSymbols(syms))
		if err != nil {
			return nil, err
		}
		return &workloads.Instance{Prog: prog, Mem: m, StackTop: workloads.StandardStackTop}, nil
	}}
}

// execute runs w under cfg and stops on any fault.
func execute(cfg sim.Config, w workloads.Workload) *sim.Result {
	res, _, err := sim.Execute(sim.Request{Config: cfg, Workload: &w})
	if err != nil {
		log.Fatal(err)
	}
	if res.Err != nil {
		log.Fatalf("functional error: %v", res.Err)
	}
	return res
}

// The quickstart program walks an array and conditionally accumulates —
// a data-dependent branch feeding on loads, the pattern that makes
// wrong-path modeling matter.
const quickstartSource = `
.entry main
main:
    la   s0, DATA           # array base (symbol provided by the host)
    li   s1, N
    li   t0, 0              # index
    li   s2, 0              # sum
loop:
    bge  t0, s1, done
    slli t1, t0, 3
    add  t1, t1, s0
    ld   t2, 0(t1)          # load element
    addi t0, t0, 1
    andi t3, t2, 1
    beqz t3, loop           # data-dependent branch
    add  s2, s2, t2
    j    loop
done:
    mv   a0, s2             # exit code = sum of odd elements
    li   a7, 0
    ecall
`

// Quickstart: assemble a small program, run it under three wrong-path
// techniques, and compare the projections. wpemul is the reference
// (functional wrong-path emulation); nowp underestimates performance
// because the mispredicted wrong path prefetches the very array
// elements the correct path needs next.
func Example_quickstart() {
	const n = 20_000
	rng := graph.NewRNG(2024)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = rng.Next() >> 32
	}
	w := program("quickstart", quickstartSource,
		map[string]uint64{"DATA": 0x1000_0000, "N": n}, segment{0x1000_0000, vals})

	var ref *sim.Result
	for _, kind := range []wrongpath.Kind{wrongpath.WPEmul, wrongpath.Conv, wrongpath.NoWP} {
		res := execute(sim.Default(kind), w)
		if ref == nil {
			ref = res
		}
		fmt.Printf("%-8s %7d instructions %7d cycles  IPC %.3f  error vs wpemul %+.1f%%\n",
			kind, res.Core.Instructions, res.Core.Cycles, res.IPC(), 100*sim.Error(res, ref))
	}
	// Output:
	// wpemul    160150 instructions  329079 cycles  IPC 0.487  error vs wpemul +0.0%
	// conv      160150 instructions  349924 cycles  IPC 0.458  error vs wpemul -6.0%
	// nowp      160150 instructions  540821 cycles  IPC 0.296  error vs wpemul -39.2%
}

// hashJoinSource counts the probe keys present in the build relation.
// TABLE is an open-addressing table (zero = empty), MASK its size-1;
// BUILD/NB are the build keys, PROBE/NP the probe keys.
const hashJoinSource = `
.entry main
main:
    la   s0, TABLE
    la   s1, BUILD
    li   s2, NB
    li   s3, MASK
    li   s4, 2654435761
    li   t0, 0
build:
    bge  t0, s2, probephase
    slli t1, t0, 3
    add  t1, t1, s1
    ld   t2, 0(t1)          # key
    addi t0, t0, 1
    mul  t3, t2, s4
    srli t3, t3, 16
    and  t3, t3, s3
bprobe:
    slli t4, t3, 3
    add  t4, t4, s0
    ld   t5, 0(t4)
    beqz t5, bplace         # empty slot
    addi t3, t3, 1
    and  t3, t3, s3
    j    bprobe
bplace:
    sd   t2, 0(t4)
    j    build
probephase:
    la   s1, PROBE
    li   s2, NP
    li   t0, 0
    li   s9, 0              # match count
probe:
    bge  t0, s2, done
    slli t1, t0, 3
    add  t1, t1, s1
    ld   t2, 0(t1)
    addi t0, t0, 1
    mul  t3, t2, s4
    srli t3, t3, 16
    and  t3, t3, s3
pprobe:
    slli t4, t3, 3
    add  t4, t4, s0
    ld   t5, 0(t4)          # table slot (sparse load)
    beqz t5, probe          # miss: next key (data-dependent)
    beq  t5, t2, hit        # hit (data-dependent)
    addi t3, t3, 1
    and  t3, t3, s3
    j    pprobe
hit:
    addi s9, s9, 1
    j    probe
done:
    mv   a0, s9
    li   a7, 0
    ecall
`

// Custom workload: bring your own benchmark — write assembly, lay out
// its data, wrap both in a workloads.Workload, and measure how
// sensitive it is to wrong-path modeling. The workload is a small hash
// join: probe misses and hits take different, data-dependent paths,
// and the table is sparse in memory. The probe loop converges after
// each key, so convergence exploitation recovers most of the
// wrong-path prefetch effect.
func Example_customWorkload() {
	const (
		tableBits = 14
		nBuild    = 1 << 12
		nProbe    = 1 << 12
	)
	rng := graph.NewRNG(99)
	build := make([]uint64, nBuild)
	for i := range build {
		build[i] = rng.Next()>>1 | 1
	}
	probe := make([]uint64, nProbe)
	for i := range probe {
		if rng.Next()&1 == 0 {
			probe[i] = build[rng.Intn(nBuild)]
		} else {
			probe[i] = rng.Next()>>1 | 1
		}
	}
	w := program("hashjoin", hashJoinSource, map[string]uint64{
		"TABLE": 0x1000_0000,
		"BUILD": 0x2000_0000, "NB": nBuild,
		"PROBE": 0x3000_0000, "NP": nProbe,
		"MASK": 1<<tableBits - 1,
	}, segment{0x2000_0000, build}, segment{0x3000_0000, probe})

	var ref *sim.Result
	for _, kind := range []wrongpath.Kind{wrongpath.WPEmul, wrongpath.ConvResolve, wrongpath.Conv, wrongpath.InstRec, wrongpath.NoWP} {
		res := execute(sim.Default(kind), w)
		if ref == nil {
			ref = res
		}
		fmt.Printf("%-9s %7d cycles  IPC %.3f  L1D miss %.1f%%  error vs wpemul %+.1f%%\n",
			kind, res.Core.Cycles, res.IPC(), 100*res.L1D.Correct.MissRate(), 100*sim.Error(res, ref))
	}
	// Output:
	// wpemul     418029 cycles  IPC 0.301  L1D miss 10.9%  error vs wpemul +0.0%
	// convres    423188 cycles  IPC 0.297  L1D miss 11.4%  error vs wpemul -1.2%
	// conv       448366 cycles  IPC 0.281  L1D miss 15.0%  error vs wpemul -6.8%
	// instrec    556632 cycles  IPC 0.226  L1D miss 30.2%  error vs wpemul -24.9%
	// nowp       556632 cycles  IPC 0.226  L1D miss 30.2%  error vs wpemul -24.9%
}

// Graph analytics: a GAP kernel on a generated graph under all five
// wrong-path techniques, with the convergence technique's internals
// (paper Table III).
func Example_graphAnalytics() {
	w := gap.BFS(gap.Params{N: 1 << 12, Degree: 8, Seed: 42, MaxInsts: 150_000})
	results := map[wrongpath.Kind]*sim.Result{}
	for _, kind := range wrongpath.Kinds() {
		results[kind] = execute(sim.Default(kind), w)
	}
	ref := results[wrongpath.WPEmul]
	for _, kind := range wrongpath.Kinds() {
		res := results[kind]
		fmt.Printf("%-9s IPC %.3f %7d cycles %6d WP insts  error %+.1f%%\n",
			kind, res.IPC(), res.Core.Cycles, res.Core.WPExecuted, 100*sim.Error(res, ref))
	}
	conv := results[wrongpath.Conv]
	fmt.Printf("convergence found on %.0f%% of misses, %.1f instructions down the wrong path\n",
		100*conv.Policy.ConvFrac(), conv.Policy.ConvDist())
	fmt.Printf("wrong-path loads with a recovered address: %.0f%%\n",
		100*float64(conv.Core.WPLoadsWithAddr)/float64(conv.Core.WPLoads))
	// Output:
	// nowp      IPC 0.246  610317 cycles      0 WP insts  error -21.9%
	// instrec   IPC 0.246  610317 cycles 213657 WP insts  error -21.9%
	// conv      IPC 0.260  576245 cycles 180539 WP insts  error -17.3%
	// convres   IPC 0.311  482970 cycles 142896 WP insts  error -1.3%
	// wpemul    IPC 0.315  476780 cycles 134278 WP insts  error +0.0%
	// convergence found on 100% of misses, 6.8 instructions down the wrong path
	// wrong-path loads with a recovered address: 30%
}

// Predictor study: the flexibility argument for functional-first
// simulation — the same functional frontend drives performance models
// with different branch predictors. cc's mispredictions are
// data-dependent, so predictor size barely moves its MPKI; only the
// oracle removes the wrong path.
func Example_predictorStudy() {
	w := gap.CC(gap.Params{N: 1 << 12, Degree: 8, Seed: 42, MaxInsts: 100_000})
	for _, p := range []struct {
		name                  string
		kind                  branch.PredictorKind
		bimodal, gshare, hist int
	}{
		{"tiny (1K/1K, h=6)", branch.PredictorTournament, 10, 10, 6},
		{"small (4K/4K, h=10)", branch.PredictorTournament, 12, 12, 10},
		{"default (16K/64K, h=16)", branch.PredictorTournament, 14, 16, 16},
		{"large (64K/256K, h=18)", branch.PredictorTournament, 16, 18, 18},
		{"tage", branch.PredictorTAGE, 14, 16, 64},
		{"perfect (oracle)", branch.PredictorPerfect, 14, 16, 16},
	} {
		cfg := sim.Default(wrongpath.Conv)
		cfg.Core.BranchPred = branch.Config{
			Predictor:   p.kind,
			BimodalBits: p.bimodal, GShareBits: p.gshare,
			ChoiceBits: p.bimodal, HistoryLen: p.hist,
			RASSize: 32, IndirectBits: 12,
		}
		res := execute(cfg, w)
		fmt.Printf("%-23s MPKI %5.2f  IPC %.3f  WP/CP %3.0f%%  %6d cycles\n",
			p.name, res.Core.MPKI(), res.IPC(), 100*res.Core.WPFraction(), res.Core.Cycles)
	}
	// Output:
	// tiny (1K/1K, h=6)       MPKI  9.59  IPC 0.447  WP/CP  43%  223592 cycles
	// small (4K/4K, h=10)     MPKI  9.59  IPC 0.447  WP/CP  43%  223780 cycles
	// default (16K/64K, h=16) MPKI  9.78  IPC 0.447  WP/CP  43%  223865 cycles
	// large (64K/256K, h=18)  MPKI  9.78  IPC 0.447  WP/CP  43%  223865 cycles
	// tage                    MPKI 10.42  IPC 0.447  WP/CP  44%  223699 cycles
	// perfect (oracle)        MPKI  0.00  IPC 0.473  WP/CP   0%  211383 cycles
}
