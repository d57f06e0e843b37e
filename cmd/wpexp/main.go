// Command wpexp regenerates the paper's tables and figures (see
// DESIGN.md for the experiment index).
//
// Usage:
//
//	wpexp                      # everything, paper order
//	wpexp -exp fig1            # one experiment
//	wpexp -exp table3 -n 16384 # smaller GAP input
//	wpexp -quick               # test-scale inputs (seconds, not minutes)
//	wpexp -exp fig1 -jobs 0    # fan simulations out, one worker per core
//
// Report text is byte-identical for any -jobs value; only host
// wall-clock changes (the speed and parallel experiments always run
// their timed simulations serially).
//
// Exit codes: 0 clean, 1 hard failure (including a faulted cell, named
// in the error), 3 report flushed with INCOMPLETE cells after a
// cancellation. The observability outputs
// (-metrics-out, -trace-out, -pprof) flush on every exit path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/cliobs"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/resultcache"
	"repro/internal/simerr"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
)

// Exit codes. exitAnnotated marks a sweep whose report flushed but
// carries INCOMPLETE cells: nonzero so CI notices, distinct from the
// hard-failure exit 1.
const (
	exitClean     = 0
	exitFailure   = 1
	exitUsage     = 2
	exitAnnotated = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind an exit code; the deferred
// observability Finish guarantees -metrics-out/-trace-out/-pprof flush
// before every exit, hard failures included.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("wpexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp      = fs.String("exp", "all", "experiment: "+strings.Join(experiments.Names(), ", ")+", or all")
		n        = fs.Int("n", 0, "GAP graph vertices (0 = default)")
		degree   = fs.Int("degree", 0, "GAP graph degree (0 = default)")
		scale    = fs.Float64("scale", 0, "SPEC-proxy scale (0 = default)")
		quick    = fs.Bool("quick", false, "use test-scale inputs")
		batch    = fs.Int("batch", 0, "decoupling-queue lane size (0 = default, 1 = per-instruction; report text identical at any size)")
		verbose  = fs.Bool("v", false, "print one line per simulation run")
		jobs     = fs.Int("jobs", 1, "batch worker count for independent simulations (0 = one per host core)")
		ckptDir  = fs.String("checkpoint-dir", "", "write per-cell crash-safe snapshots under this directory (empty = disabled)")
		ckptN    = fs.Uint64("checkpoint-every", 1_000_000, "snapshot interval in retired instructions (with -checkpoint-dir)")
		resume   = fs.Bool("resume", false, "resume each cell from its latest snapshot under -checkpoint-dir; the resumed report is byte-identical to an uninterrupted sweep")
		cacheDir = fs.String("cache-dir", "", "persist fault-free cell results under this directory and skip re-simulating them on repeated sweeps (empty = disabled)")
		cacheMax = fs.Int("cache-max", 0, "cell-cache in-memory entry bound (with -cache-dir; 0 = default)")
	)
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitClean
		}
		return exitUsage
	}

	opt := experiments.Options{Out: stdout}
	opt.Base.Config.Core = core.DefaultConfig()
	opt.Base.Config.Core.Batch = *batch
	if *quick {
		opt.GAP = gap.TestParams()
		opt.Spec = specproxy.TestParams()
	}
	if *n > 0 {
		if opt.GAP.N == 0 {
			opt.GAP = gap.DefaultParams()
		}
		opt.GAP.N = *n
	}
	if *degree > 0 {
		if opt.GAP.N == 0 {
			opt.GAP = gap.DefaultParams()
		}
		opt.GAP.Degree = *degree
	}
	if *scale > 0 {
		opt.Spec = specproxy.DefaultParams()
		opt.Spec.Scale = *scale
	}
	if *verbose {
		opt.Progress = stderr
	}
	opt.Jobs = *jobs
	opt.Base.Config.CheckpointDir = *ckptDir
	opt.Base.Config.CheckpointEvery = *ckptN
	opt.Base.Resume = *resume
	if *cacheDir != "" {
		cache, err := resultcache.New(*cacheDir, *cacheMax)
		if err != nil {
			fmt.Fprintf(stderr, "wpexp: opening -cache-dir: %v\n", err)
			return exitFailure
		}
		opt.Cache = cache
	}

	// First SIGINT/SIGTERM cancels the sweep cleanly: in-flight cells
	// finish their lane, the report flushes with INCOMPLETE footnotes,
	// and snapshots stay resumable. A second signal kills outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opt.Base.Config.Ctx = ctx

	var err error
	if opt.Base.Config.Metrics, opt.Base.Config.Trace, err = obsFlags.Start(); err != nil {
		fmt.Fprintf(stderr, "wpexp: observability: %v\n", err)
		return exitFailure
	}
	// The flush guarantee: a hard runner failure or an annotated exit
	// still writes the observability outputs — the metrics of a faulted
	// sweep are exactly the ones worth keeping. A flush failure hardens
	// the exit to 1 so the loss is never silent.
	defer func() {
		if err := obsFlags.Finish(); err != nil {
			fmt.Fprintf(stderr, "wpexp: observability: %v\n", err)
			code = exitFailure
		}
	}()

	r := experiments.NewRunner(opt)
	if *exp == "all" {
		err = r.All()
	} else {
		err = r.Run(*exp)
	}
	if err != nil && !errors.Is(err, simerr.ErrCanceled) {
		fmt.Fprintf(stderr, "wpexp: %v\n", err)
		return exitFailure
	}
	if err != nil {
		// Canceled: the partial report and its INCOMPLETE footnote are
		// already flushed; the deferred Finish writes the observability
		// outputs, and the Faulted check below exits annotated.
		fmt.Fprintf(stderr, "wpexp: %v\n", err)
	}
	// The report flushed, but some cells are INCOMPLETE: tell CI
	// without discarding the partial output.
	if r.Faulted() {
		return exitAnnotated
	}
	return exitClean
}
