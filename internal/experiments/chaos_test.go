package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/simerr"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
)

// chaosOptions builds the miniature sweep configuration the chaos
// tests share. Every runner must use identical simulation parameters —
// the byte-identity claims below compare their reports directly.
func chaosOptions(out *strings.Builder, jobs int) Options {
	return Options{
		GAP:  gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 60_000},
		Spec: specproxy.Params{Scale: 0.01, Seed: 99},
		Out:  out,
		Jobs: jobs,
	}
}

// TestChaosKillResumeReportByteIdentical is the sweep-level crash
// acceptance test: a sweep killed at a checkpoint boundary and re-run
// with -resume over the same checkpoint directory must produce a final
// report byte-identical to a sweep that was never interrupted — and
// enabling checkpointing at all must not change a byte either.
func TestChaosKillResumeReportByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature chaos sweep skipped in -short mode")
	}
	const exp = "fig1"

	// Uninterrupted reference, no checkpointing.
	var plainOut strings.Builder
	if err := NewRunner(chaosOptions(&plainOut, 1)).Run(exp); err != nil {
		t.Fatal(err)
	}

	// Uninterrupted run with snapshots enabled: checkpointing must not
	// disturb the report.
	var ckptOut strings.Builder
	opt := chaosOptions(&ckptOut, 1)
	opt.Base.Config.CheckpointDir = t.TempDir()
	opt.Base.Config.CheckpointEvery = 10_000
	if err := NewRunner(opt).Run(exp); err != nil {
		t.Fatal(err)
	}
	if plainOut.String() != ckptOut.String() {
		t.Fatalf("enabling checkpointing changed the report:\n--- plain ---\n%s\n--- checkpointed ---\n%s",
			plainOut.String(), ckptOut.String())
	}

	// Killed run: cancel the sweep at the third snapshot write, from
	// inside the checkpoint hook — the same boundary a SIGINT or crash
	// lands on. Workers run concurrently so the hook must be atomic.
	dir := t.TempDir()
	var killedOut strings.Builder
	kopt := chaosOptions(&killedOut, 4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	kopt.Base.Config.Ctx = ctx
	kopt.Base.Config.CheckpointDir = dir
	kopt.Base.Config.CheckpointEvery = 10_000
	var writes atomic.Uint64
	kopt.Base.Config.OnCheckpoint = func(insts uint64, path string) {
		if writes.Add(1) == 3 {
			cancel()
		}
	}
	killer := NewRunner(kopt)
	err := killer.Run(exp)
	if !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("killed sweep returned %v, want ErrCanceled class", err)
	}
	if !killer.Faulted() {
		t.Fatal("killed sweep does not report Faulted")
	}
	if !strings.Contains(killedOut.String(), "INCOMPLETE CELLS") {
		t.Fatalf("killed sweep's flushed report lacks the INCOMPLETE footnote:\n%s", killedOut.String())
	}

	// Resumed run over the same directory: cells with snapshots restart
	// from them, cells without run from zero, and the report must be
	// byte-identical to the uninterrupted reference.
	var resumedOut strings.Builder
	ropt := chaosOptions(&resumedOut, 1)
	ropt.Base.Config.CheckpointDir = dir
	ropt.Base.Config.CheckpointEvery = 10_000
	ropt.Base.Resume = true
	resumed := NewRunner(ropt)
	if err := resumed.Run(exp); err != nil {
		t.Fatal(err)
	}
	if resumed.Faulted() {
		t.Fatal("resumed sweep still reports Faulted")
	}
	if resumedOut.String() != plainOut.String() {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s",
			resumedOut.String(), plainOut.String())
	}
}

// TestChaosCancelBeforeStart: a context canceled before the sweep
// begins must skip every cell with a typed canceled fault, flush the
// footnote-bearing report, and leak nothing.
func TestChaosCancelBeforeStart(t *testing.T) {
	var out strings.Builder
	opt := chaosOptions(&out, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt.Base.Config.Ctx = ctx
	r := NewRunner(opt)
	err := r.Run("fig1")
	if !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("pre-canceled sweep returned %v, want ErrCanceled class", err)
	}
	if !r.Faulted() {
		t.Fatal("pre-canceled sweep does not report Faulted")
	}
	if !strings.Contains(out.String(), "INCOMPLETE CELLS") {
		t.Fatalf("pre-canceled sweep report lacks the INCOMPLETE footnote:\n%s", out.String())
	}
}

// TestChaosCancelBeforeStartCustomCells: the cells that run custom
// configurations outside the memoized sweep (the ablation sweeps'
// batches) honour the sweep's cancellation too: nothing runs, and every
// cut cell is annotated.
func TestChaosCancelBeforeStartCustomCells(t *testing.T) {
	for _, c := range []struct {
		name  string
		run   func(r *Runner) error
		cells int
	}{
		{"ablationROB", (*Runner).ablationROB, 6},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			opt := chaosOptions(&out, 2)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			opt.Base.Config.Ctx = ctx
			r := NewRunner(opt)
			if err := c.run(r); !errors.Is(err, simerr.ErrCanceled) {
				t.Fatalf("pre-canceled %s returned %v, want ErrCanceled class", c.name, err)
			}
			if len(r.incomplete) != c.cells {
				t.Errorf("%d cells annotated incomplete, want %d: %q", len(r.incomplete), c.cells, r.incomplete)
			}
		})
	}
}
