// Package batch is the worker-pool engine for running independent,
// deterministic simulations concurrently. Simulations in this
// repository are pure functions of their Config and workload instance
// (the determinism wplint analyzer enforces it), so a batch of them can
// be executed on any number of workers with bit-identical results; only
// host wall-clock time changes. The engine preserves job order in its
// result slice and captures each job's error individually, so one
// failed simulation does not discard the rest of a sweep.
//
// Every sweep (experiments.Runner, wpsim -wp all) fans sim.Execute out
// through this package; wall-clock-measuring experiments pass
// workers=1 (timing runs must not contend for cores).
package batch

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/simerr"
)

// Result pairs one job's value with its error, at the job's index.
type Result[T any] struct {
	Value T
	Err   error
}

// DefaultWorkers is the worker count selected by RunContext for
// workers <= 0: one per host core.
func DefaultWorkers() int { return runtime.NumCPU() }

// RunContext executes the jobs on a pool of worker goroutines and
// returns their results indexed exactly like jobs, regardless of
// completion order. workers <= 0 selects DefaultWorkers; workers == 1
// runs every job serially on the calling goroutine (the escape hatch
// for wall-clock measurements); workers > len(jobs) is clamped. A nil
// job produces a zero Result.
//
// Fault containment: a panic inside a job is recovered — in the worker
// and in serial mode alike — and lands in that job's Result.Err as a
// typed simerr.ErrWorkerPanic fault with the captured stack. The other
// jobs run to completion and result order is preserved, so one
// crashing cell never takes down a sweep.
//
// Cancellation: once ctx is done, no new job is started. Jobs already
// in flight run to completion — each job is expected to observe the
// same context itself (sim.Config.Ctx) and return early with its own
// typed cancellation fault — and every job that never started gets a
// simerr.ErrCanceled Result.Err, so a canceled sweep reports exactly
// which cells ran and which were skipped. A nil ctx behaves like
// context.Background.
func RunContext[T any](ctx context.Context, jobs []func() (T, error), workers int) []Result[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Result[T], len(jobs))
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	run := func(i int) {
		defer func() {
			if rec := recover(); rec != nil {
				out[i].Err = simerr.WorkerPanic(fmt.Sprintf("batch job %d", i), rec, debug.Stack())
			}
		}()
		if err := ctx.Err(); err != nil {
			out[i].Err = simerr.Canceled(fmt.Sprintf("batch job %d", i), err)
			return
		}
		if jobs[i] != nil {
			out[i].Value, out[i].Err = jobs[i]()
		}
	}
	if workers <= 1 {
		for i := range jobs {
			run(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	return out
}
