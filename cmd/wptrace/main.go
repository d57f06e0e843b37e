// Command wptrace records workload execution traces and replays them
// through the performance simulator — the trace-interpreter frontend
// mode of functional-first simulation. Replay supports every wrong-path
// technique except wpemul (a trace holds only correct-path
// instructions; paper §III-B).
//
// Usage:
//
//	wptrace -record -suite gap -bench bfs -o bfs.trace
//	wptrace -replay bfs.trace -wp conv
//	wptrace -replay bfs.trace -wp all -jobs 4   # every supported technique
//
// Exit codes: 0 clean, 1 hard failure, 2 usage, 3 completed but
// annotated (degraded, faulted, or canceled). In replay mode the
// observability outputs (-metrics-out, -trace-out, -pprof) flush on
// every exit path, annotated and hard-failure exits included.
package main

import (
	"bytes"
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
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/tracefile"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// Exit codes. exitAnnotated marks a replay that completed and printed
// its report but carries a fault annotation (a degraded cell, a
// canceled run, or a run-ending functional fault). Scripts that gate on
// clean replays must see nonzero; exit 1 stays reserved for hard
// failures that produce no report.
const (
	exitClean     = 0
	exitFailure   = 1
	exitUsage     = 2
	exitAnnotated = 3
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind an exit code; replay mode defers the
// observability Finish so the outputs flush before every exit.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wptrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		record   = fs.Bool("record", false, "record a workload trace")
		replay   = fs.String("replay", "", "replay a trace file through the performance simulator")
		out      = fs.String("o", "out.trace", "output trace path (record mode)")
		suite    = fs.String("suite", "gap", "workload suite (record mode)")
		bench    = fs.String("bench", "bfs", "benchmark (record mode)")
		wp       = fs.String("wp", "conv", "wrong-path technique (replay mode): "+strings.Join(wrongpath.Names(), ", ")+", or all; wpemul unsupported")
		jobs     = fs.Int("jobs", 1, "-wp all worker count (0 = one per host core)")
		maxInsts = fs.Uint64("max-insts", 0, "instruction cap (0 = workload default)")
		lane     = fs.Int("batch", 0, "decoupling-queue lane size for replay (0 = default, 1 = per-instruction; results identical at any size)")
		watchdog = fs.Duration("watchdog", 0, "stall-watchdog budget for replay (0 = disabled)")
		degrade  = fs.Bool("degrade", false, "replay mode: degrade one technique rung down on a recoverable fault; keep the valid prefix of a corrupt trace")
		retries  = fs.Int("max-retries", 2, "ladder descents allowed (with -degrade)")
		ckptDir  = fs.String("checkpoint-dir", "", "replay mode: write crash-safe state snapshots into this directory (empty = disabled)")
		ckptN    = fs.Uint64("checkpoint-every", 1_000_000, "snapshot interval in retired instructions (with -checkpoint-dir)")
		resume   = fs.Bool("resume", false, "replay mode: resume from the latest snapshot in -checkpoint-dir (the trace is re-opened and skipped to the snapshot's cursor)")
	)
	var obsFlags cliobs.Flags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitClean
		}
		return exitUsage
	}

	switch {
	case *record:
		return runRecord(stdout, stderr, *suite, *bench, *out, *maxInsts)
	case *replay != "":
		req := sim.Request{Config: sim.Default(wrongpath.NoWP), Resume: *resume}
		cfg := &req.Config
		cfg.MaxInsts, cfg.Core.Batch, cfg.Watchdog = *maxInsts, *lane, *watchdog
		cfg.CheckpointDir, cfg.CheckpointEvery = *ckptDir, *ckptN
		if *degrade {
			// Ladder replay: every attempt replays a fresh reader over the
			// same bytes; a corrupt tail keeps the valid prefix, and an
			// unsupported technique (wpemul on a trace) runs a rung down.
			cfg.Degrade = sim.DegradePolicy{MaxRetries: *retries}
		}
		return runReplay(stdout, stderr, &obsFlags, *replay, *wp, *jobs, req)
	default:
		fmt.Fprintln(stderr, "wptrace: need -record or -replay; see -h")
		return exitUsage
	}
}

// runRecord executes a workload on the functional simulator and writes
// its instruction stream as a trace file.
func runRecord(stdout, stderr io.Writer, suite, bench, out string, maxInsts uint64) int {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wptrace:", err)
		return exitFailure
	}
	w, err := catalog.Find(suite, bench, catalog.Params{})
	if err != nil {
		return fail(err)
	}
	inst, err := w.Build()
	if err != nil {
		return fail(err)
	}
	budget := maxInsts
	if budget == 0 {
		budget = inst.SuggestedMaxInsts
	}
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	var opts []frontend.Option
	if budget > 0 {
		opts = append(opts, frontend.WithMaxInstructions(budget))
	}
	fe := frontend.New(cpu, opts...)
	f, err := os.Create(out)
	if err != nil {
		return fail(err)
	}
	tw, err := tracefile.NewWriter(f)
	if err != nil {
		return fail(err)
	}
	n, err := tracefile.Record(fe, tw)
	if err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	st, _ := os.Stat(out)
	perInst := 0.0
	if n > 0 {
		perInst = float64(st.Size()) / float64(n)
	}
	fmt.Fprintf(stdout, "recorded %d instructions to %s (%d bytes, %.2f B/inst)\n",
		n, out, st.Size(), perInst)
	return exitClean
}

// runReplay replays the trace at path under req (technique wp, or every
// supported one on jobs workers for "all"). The observability lifecycle
// is a named-return defer, so -metrics-out/-trace-out flush before every
// exit — a degraded or faulted replay's metrics are kept, and a flush
// failure hardens the exit to 1.
func runReplay(stdout, stderr io.Writer, obsFlags *cliobs.Flags, path, wp string, jobs int, req sim.Request) (code int) {
	fail := func(err error) int {
		fmt.Fprintln(stderr, "wptrace:", err)
		return exitFailure
	}
	metrics, tsink, err := obsFlags.Start()
	if err != nil {
		return fail(fmt.Errorf("observability: %w", err))
	}
	defer func() {
		if err := obsFlags.Finish(); err != nil {
			fmt.Fprintln(stderr, "wptrace: observability:", err)
			code = exitFailure
		}
	}()
	// SIGINT/SIGTERM cancel the replay cleanly: it stops at the next
	// lane boundary, the partial result prints annotated, and the
	// process exits nonzero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	req.Trace = func() (queue.Producer, error) { return tracefile.NewReader(bytes.NewReader(data)) }
	req.Config.Metrics, req.Config.Trace, req.Config.ObsLabel = metrics, tsink, "trace:"+path
	req.Config.Ctx = ctx

	if wp == "all" {
		faulted, err := replayAll(stdout, req, jobs)
		if err != nil {
			return fail(err)
		}
		if faulted {
			return exitAnnotated
		}
		return exitClean
	}
	kind, ok := wrongpath.ParseKind(wp)
	if !ok {
		return fail(fmt.Errorf("unknown technique %q (have %s, all)", wp, strings.Join(wrongpath.Names(), ", ")))
	}
	req.Config.WP = kind
	res, _, err := sim.Execute(req)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "technique      %s\n", kind)
	faulted := false
	if res.Degraded {
		fmt.Fprintf(stdout, "DEGRADED       ran as %v (requested %v): %v\n", res.WP, res.RequestedWP, res.DegradeFault)
		faulted = true
	} else if res.Err != nil {
		// A replay that ended on a fault (corrupt tail, stall abort,
		// cancellation) still prints its partial statistics, annotated —
		// and must not exit 0 as if the replay were clean.
		fmt.Fprintf(stdout, "FAULT          %v\n", simerr.FirstLine(res.Err))
		faulted = true
	}
	fmt.Fprintf(stdout, "instructions   %d\n", res.Core.Instructions)
	fmt.Fprintf(stdout, "cycles         %d\n", res.Core.Cycles)
	fmt.Fprintf(stdout, "IPC            %.4f\n", res.IPC())
	fmt.Fprintf(stdout, "mispredicts    %d\n", res.Core.Mispredicts)
	fmt.Fprintf(stdout, "WP executed    %d\n", res.Core.WPExecuted)
	fmt.Fprintf(stdout, "wall time      %v\n", res.Wall)
	if faulted {
		return exitAnnotated
	}
	return exitClean
}

// replayAll replays the trace under every technique the trace frontend
// supports, each replay over its own in-memory reader of the same trace
// bytes, fanned out on the batch engine. A trace cannot emulate wrong
// paths (paper §III-B; the session layer rejects it), so wpemul is
// skipped.
// Faulted cells (corrupt tail, stall abort, cancellation) render
// annotated instead of killing the table mid-report; the returned flag
// makes the caller exit nonzero after the table has printed.
func replayAll(stdout io.Writer, req sim.Request, jobs int) (bool, error) {
	var kinds []wrongpath.Kind
	for _, k := range wrongpath.Kinds() {
		if k == wrongpath.WPEmul {
			fmt.Fprintf(stdout, "(skipping %v: unsupported on a trace frontend, paper §III-B)\n\n", k)
			continue
		}
		kinds = append(kinds, k)
	}
	runJobs := make([]func() (*sim.Result, error), len(kinds))
	for i, k := range kinds {
		runJobs[i] = func() (*sim.Result, error) {
			r := req
			r.Config.WP = k
			if dir := r.Config.CheckpointDir; dir != "" {
				// One snapshot directory per technique, as wpsim -wp all.
				r.Config.CheckpointDir = filepath.Join(dir, k.String())
			}
			res, _, err := sim.Execute(r)
			return res, err
		}
	}
	results := batch.RunContext(req.Config.Ctx, runJobs, jobs)
	fmt.Fprintf(stdout, "%-10s %12s %12s %8s %12s %12s\n",
		"technique", "insts", "cycles", "IPC", "WP executed", "wall")
	faulted := false
	for i, k := range kinds {
		if err := results[i].Err; err != nil {
			fmt.Fprintf(stdout, "%-10s FAULT: %v\n", k, simerr.FirstLine(err))
			faulted = true
			continue
		}
		res := results[i].Value
		note := ""
		if res.Err != nil {
			note = fmt.Sprintf("  FAULT(%v)", simerr.FirstLine(res.Err))
			faulted = true
		}
		fmt.Fprintf(stdout, "%-10s %12d %12d %8.4f %12d %12v%s\n",
			k, res.Core.Instructions, res.Core.Cycles, res.IPC(),
			res.Core.WPExecuted, res.Wall.Round(1_000_000), note)
	}
	if jobs != 1 {
		fmt.Fprintf(stdout, "\n(wall clocks from concurrent runs; use -jobs 1 for calibrated timing)\n")
	}
	return faulted, nil
}
