// Command wpsim runs one workload — or one recorded trace — on the
// functional-first simulator under one wrong-path modeling technique
// and prints the statistics. The two inputs are the paper's frontend
// kinds (§III-B): the live functional frontend, and the trace
// interpreter fed by a trace that -record writes. Every other flag
// applies to both; a trace cannot run wpemul (it holds only
// correct-path instructions), so -wp all skips it there.
//
// Usage:
//
//	wpsim -suite gap -bench bfs -wp conv
//	wpsim -suite specint -bench chase -wp nowp -max-insts 1000000
//	wpsim -suite gap -bench pr -wp wpemul -n 8192 -degree 8
//	wpsim -suite gap -bench bfs -wp all -jobs 4   # compare all techniques
//	wpsim -suite gap -bench bfs -n 4096 -record bfs.trace
//	wpsim -replay bfs.trace -wp all -rob 128      # re-time the trace
//
// Exit codes: 0 clean, 1 hard failure, 2 usage, 3 completed but
// annotated (faulted or canceled cells). The observability
// outputs (-metrics-out, -trace-out, -pprof) flush on every exit path,
// including 1 and 3 — a faulted run's metrics are exactly the ones
// worth keeping.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/batch"
	"repro/internal/cliobs"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/tracefile"
	"repro/internal/workloads"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// Exit codes. exitAnnotated marks a run that completed and printed its
// report but carries fault annotations (canceled or faulted cells):
// nonzero so scripts notice, distinct from the hard-failure exit 1.
const (
	exitClean     = 0
	exitFailure   = 1
	exitUsage     = 2
	exitAnnotated = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind an exit code. The observability
// lifecycle is a named-return defer so -metrics-out/-trace-out/-pprof
// flush before EVERY exit — hard failures and annotated exits
// included; os.Exit appears only in main.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("wpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suite    = fs.String("suite", "gap", "workload suite: "+strings.Join(catalog.Suites(), ", "))
		bench    = fs.String("bench", "bfs", "benchmark name within the suite")
		wp       = fs.String("wp", "conv", "wrong-path technique: "+strings.Join(wrongpath.Names(), ", ")+", or all")
		jobs     = fs.Int("jobs", 1, "-wp all worker count (0 = one per host core; wall clocks contend when > 1)")
		maxInsts = fs.Uint64("max-insts", 0, "instruction cap (0 = workload default)")
		warmup   = fs.Uint64("warmup", 0, "functional-warming instructions before detailed simulation")
		parallel = fs.Bool("parallel", false, "run the functional frontend in its own goroutine")
		n        = fs.Int("n", 0, "GAP graph vertices (0 = default)")
		degree   = fs.Int("degree", 0, "GAP graph degree (0 = default)")
		kron     = fs.Bool("kron", false, "use the Kronecker generator for GAP inputs")
		grid     = fs.Bool("grid", false, "use a 2D grid (road-network-like) GAP input")
		seed     = fs.Uint64("seed", 0, "input seed (0 = default)")
		scale    = fs.Float64("scale", 0, "SPEC-proxy scale factor (0 = default)")
		rob      = fs.Int("rob", 0, "ROB size override")
		batch    = fs.Int("batch", 0, "decoupling-queue lane size (0 = default, 1 = per-instruction; results identical at any size)")
		memLat   = fs.Int("mem-latency", 0, "memory latency override (cycles)")
		showCfg  = fs.Bool("config", false, "print the core configuration and exit")
		list     = fs.Bool("list", false, "list available benchmarks and exit")
		ckptDir  = fs.String("checkpoint-dir", "", "write crash-safe state snapshots into this directory (empty = disabled)")
		ckptN    = fs.Uint64("checkpoint-every", 1_000_000, "snapshot interval in retired instructions (with -checkpoint-dir)")
		resume   = fs.Bool("resume", false, "resume from the latest snapshot in -checkpoint-dir instead of starting from zero")
		record   = fs.String("record", "", "write the workload's instruction trace (up to -max-insts) to this file and exit")
		replay   = fs.String("replay", "", "simulate this trace file (from -record) instead of -suite/-bench; wpemul unsupported")
	)
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitClean
		}
		return exitUsage
	}

	cfg := core.DefaultConfig()
	if *rob > 0 {
		cfg.ROBSize = *rob
	}
	cfg.Batch = *batch
	if *memLat > 0 {
		cfg.Hierarchy.MemLatency = *memLat
	}
	if *showCfg {
		fmt.Fprint(stdout, sim.DescribeConfig(cfg))
		return exitClean
	}
	if *list {
		for _, s := range catalog.Suites() {
			fmt.Fprintf(stdout, "%-8s %v\n", s+":", catalog.Names(s))
		}
		return exitClean
	}

	if *record != "" && *replay != "" {
		fmt.Fprintln(stderr, "wpsim: -record and -replay are exclusive")
		return exitUsage
	}
	var w workloads.Workload
	var err error
	if *replay == "" {
		w, err = catalog.Find(*suite, *bench, catalog.Params{
			N: *n, Degree: *degree, Kron: *kron, Grid: *grid, Seed: *seed, Scale: *scale})
		if err != nil {
			fmt.Fprintf(stderr, "wpsim: %v\n", err)
			return exitFailure
		}
	}
	if *record != "" {
		if err := recordTrace(stdout, w, *maxInsts, *record); err != nil {
			fmt.Fprintf(stderr, "wpsim: recording: %v\n", err)
			return exitFailure
		}
		return exitClean
	}

	metrics, tsink, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintf(stderr, "wpsim: observability: %v\n", err)
		return exitFailure
	}
	// The flush guarantee: whatever exit path the rest of run takes —
	// hard failure, annotated result, clean — the observability outputs
	// are written before the process exits. A flush failure turns a
	// clean or annotated exit into a hard failure (silent data loss is
	// worse than a loud one), but never masks an earlier hard failure.
	defer func() {
		if err := obsFlags.Finish(); err != nil {
			fmt.Fprintf(stderr, "wpsim: observability: %v\n", err)
			if code != exitFailure {
				code = exitFailure
			}
		}
	}()

	// SIGINT/SIGTERM cancel the run cleanly: the simulation stops at its
	// next lane boundary, the partial result prints annotated, and the
	// process exits nonzero. A second signal kills the process outright
	// (the default behavior NotifyContext restores after the first).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	req := sim.Request{Config: sim.Config{Core: cfg, MaxInsts: *maxInsts, WarmupInsts: *warmup,
		ParallelFrontend: *parallel, Metrics: metrics, Trace: tsink, ObsLabel: *suite + "/" + *bench,
		Ctx: ctx, CheckpointDir: *ckptDir, CheckpointEvery: *ckptN},
		Resume: *resume}
	if *replay == "" {
		req.Workload = &w
	} else {
		data, err := os.ReadFile(*replay)
		if err != nil {
			fmt.Fprintf(stderr, "wpsim: %v\n", err)
			return exitFailure
		}
		req.Trace = data
		req.Config.ObsLabel = "trace:" + *replay
	}
	if *wp == "all" {
		if compareAll(stdout, req, *jobs) {
			return exitAnnotated
		}
		return exitClean
	}

	kind, ok := wrongpath.ParseKind(*wp)
	if !ok {
		fmt.Fprintf(stderr, "wpsim: unknown wrong-path technique %q (have %s, all)\n", *wp, strings.Join(wrongpath.Names(), ", "))
		return exitFailure
	}
	req.Config.WP = kind
	res, _, err := sim.Execute(req)
	if err != nil {
		fmt.Fprintf(stderr, "wpsim: simulating: %v\n", err)
		return exitFailure
	}
	printResult(stdout, req.Config.ObsLabel, res)
	if res.Err != nil {
		return exitAnnotated
	}
	return exitClean
}

// recordTrace writes the workload's correct-path instruction stream,
// capped at maxInsts (0 = the workload's suggested budget), to the
// trace file path — the input -replay re-times under any core settings.
func recordTrace(stdout io.Writer, w workloads.Workload, maxInsts uint64, path string) error {
	inst, err := w.Build()
	if err != nil {
		return err
	}
	if maxInsts == 0 {
		maxInsts = inst.SuggestedMaxInsts
	}
	fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop),
		frontend.WithMaxInstructions(maxInsts))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw, err := tracefile.NewWriter(f)
	var n uint64
	if err == nil {
		n, err = tracefile.Record(fe, tw)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	perInst := 0.0
	if n > 0 {
		perInst = float64(st.Size()) / float64(n)
	}
	fmt.Fprintf(stdout, "recorded %d instructions to %s (%d bytes, %.2f B/inst)\n",
		n, path, st.Size(), perInst)
	return nil
}

// compareAll runs the request under every technique (in
// wrongpath.Kinds() order) on the batch engine and prints a one-line
// comparison per kind, with wpemul as the error reference. A trace
// cannot emulate wrong paths (paper §III-B), so on a trace input wpemul
// is skipped. A cell that carries a fault annotation, or whose Execute
// failed (including a cell a cancellation never started), still prints
// its row; the returned flag makes the caller exit annotated after the
// full table.
func compareAll(stdout io.Writer, req sim.Request, jobs int) (faulted bool) {
	var kinds []wrongpath.Kind
	for _, k := range wrongpath.Kinds() {
		if k == wrongpath.WPEmul && req.Trace != nil {
			fmt.Fprintf(stdout, "(skipping %v: unsupported on a trace frontend, paper §III-B)\n\n", k)
			continue
		}
		kinds = append(kinds, k)
	}
	cells := make([]func() (*sim.Result, error), len(kinds))
	for i, k := range kinds {
		cells[i] = func() (*sim.Result, error) {
			r := req
			r.Config.WP = k
			if dir := r.Config.CheckpointDir; dir != "" {
				// One snapshot directory per technique: concurrent cells
				// must never overwrite each other's snapshots, and a resume
				// must find its own technique's file.
				r.Config.CheckpointDir = filepath.Join(dir, k.String())
			}
			res, _, err := sim.Execute(r)
			return res, err
		}
	}
	results := batch.RunContext(req.Config.Ctx, cells, jobs)
	var ref *sim.Result
	for i, k := range kinds {
		if k == wrongpath.WPEmul {
			ref = results[i].Value
		}
	}
	fmt.Fprintf(stdout, "workload   %s\n\n", req.Config.ObsLabel)
	fmt.Fprintf(stdout, "%-10s %12s %12s %8s %10s %12s %12s\n",
		"technique", "insts", "cycles", "IPC", "vs wpemul", "WP executed", "wall")
	for i, k := range kinds {
		res, err := results[i].Value, results[i].Err
		if err != nil {
			fmt.Fprintf(stdout, "%-10s FAULT: %v\n", k, simerr.FirstLine(err))
			faulted = true
			continue
		}
		errCol := "-"
		switch {
		case k == wrongpath.WPEmul:
			errCol = "(ref)"
		case ref != nil:
			errCol = fmt.Sprintf("%+.1f%%", 100*sim.Error(res, ref))
		}
		note := ""
		if res.Err != nil {
			note = fmt.Sprintf("  FAULT(%v)", simerr.FirstLine(res.Err))
			faulted = true
		}
		fmt.Fprintf(stdout, "%-10s %12d %12d %8.4f %10s %12d %12v%s\n",
			k, res.Core.Instructions, res.Core.Cycles, res.IPC(),
			errCol, res.Core.WPExecuted, res.Wall.Round(1_000_000), note)
	}
	if jobs != 1 {
		fmt.Fprintf(stdout, "\n(wall clocks from concurrent runs; use -jobs 1 for calibrated timing)\n")
	}
	return faulted
}

// printResult prints one run's statistics; input is the run's ObsLabel
// (suite/bench, or trace:FILE).
func printResult(stdout io.Writer, input string, res *sim.Result) {
	fmt.Fprintf(stdout, "workload            %s\n", input)
	fmt.Fprintf(stdout, "technique           %s\n", res.WP)
	fmt.Fprintf(stdout, "instructions        %d\n", res.Core.Instructions)
	fmt.Fprintf(stdout, "cycles              %d\n", res.Core.Cycles)
	fmt.Fprintf(stdout, "IPC                 %.4f\n", res.IPC())
	fmt.Fprintf(stdout, "branch MPKI         %.2f\n", res.Core.MPKI())
	fmt.Fprintf(stdout, "cond mispredict     %d / %d\n", res.Core.CondMispredicted, res.Core.CondBranches)
	fmt.Fprintf(stdout, "L1D miss rate       %.2f%% (%d accesses)\n", 100*res.L1D.Correct.MissRate(), res.L1D.Correct.Accesses)
	fmt.Fprintf(stdout, "L2 miss rate        %.2f%% (%d accesses)\n", 100*res.L2.Total().MissRate(), res.L2.Total().Accesses)
	fmt.Fprintf(stdout, "LLC miss rate       %.2f%% (%d accesses)\n", 100*res.LLC.Total().MissRate(), res.LLC.Total().Accesses)
	fmt.Fprintf(stdout, "DRAM accesses       %d (%d wrong-path)\n", res.MemAccesses, res.WrongMemAccesses)
	fmt.Fprintf(stdout, "DTLB miss rate      %.2f%%\n", 100*res.DTLB.Total().MissRate())
	fmt.Fprintf(stdout, "WP fetched          %d\n", res.Core.WPFetched)
	fmt.Fprintf(stdout, "WP executed         %d (%.0f%% of correct path)\n", res.Core.WPExecuted, 100*res.Core.WPFraction())
	fmt.Fprintf(stdout, "WP loads executed   %d (%d with address)\n", res.Core.WPLoads, res.Core.WPLoadsWithAddr)
	fmt.Fprintf(stdout, "WP L2 misses        %d\n", res.L2.Wrong.Misses)
	if res.WP == wrongpath.Conv {
		fmt.Fprintf(stdout, "conv frac           %.0f%%\n", 100*res.Policy.ConvFrac())
		fmt.Fprintf(stdout, "conv dist           %.1f\n", res.Policy.ConvDist())
		fmt.Fprintf(stdout, "addr recover        %.0f%%\n", 100*res.Policy.AddrRecoverFrac())
		fmt.Fprintf(stdout, "match len           %.1f\n", res.Policy.MatchLen())
	}
	if res.WP == wrongpath.WPEmul {
		fmt.Fprintf(stdout, "WP emulations       %d paths, %d instructions\n", res.WPEmulatedPaths, res.WPEmulatedInsts)
	}
	fmt.Fprintf(stdout, "wall time           %v\n", res.Wall)
	if len(res.Output) > 0 {
		fmt.Fprintf(stdout, "program output      %q\n", res.Output)
	}
	if res.Err != nil {
		// The caller exits with exitAnnotated: the stats above are still
		// the truth up to the fault, and a canceled run's snapshot chain
		// stays resumable.
		fmt.Fprintf(stdout, "functional error    %v\n", res.Err)
	}
}
