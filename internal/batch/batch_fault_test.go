package batch

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/simerr"
)

// TestPanicContained: a panicking job must land a typed ErrWorkerPanic
// in exactly its own slot — neighbours complete, order is preserved —
// for the serial path, a mid-size pool, and an oversubscribed pool.
// Runs under -race via make check.
func TestPanicContained(t *testing.T) {
	for _, workers := range []int{1, 4, 64} {
		jobs := squareJobs(20)
		jobs[7] = func() (int, error) { panic("injected fault in job 7") }
		results := RunContext(context.Background(), jobs, workers)
		for i, r := range results {
			if i == 7 {
				continue
			}
			if r.Err != nil || r.Value != i*i {
				t.Errorf("workers=%d: job %d disturbed by the panic: %+v", workers, i, r)
			}
		}
		err := results[7].Err
		if !errors.Is(err, simerr.ErrWorkerPanic) {
			t.Fatalf("workers=%d: job 7 err = %v, want ErrWorkerPanic class", workers, err)
		}
		if !strings.Contains(err.Error(), "injected fault in job 7") {
			t.Errorf("workers=%d: panic value missing from error: %v", workers, err)
		}
		var f *simerr.Fault
		if !errors.As(err, &f) {
			t.Fatalf("workers=%d: err is not a *simerr.Fault", workers)
		}
		if len(f.Stack) == 0 {
			t.Errorf("workers=%d: panic fault carries no stack", workers)
		}
		if !strings.Contains(f.Op, "7") {
			t.Errorf("workers=%d: fault op %q does not name the job", workers, f.Op)
		}
	}
}

// TestMultiplePanicsAllContained: several panicking jobs each get their
// own fault; the worker that recovered one keeps draining the queue.
func TestMultiplePanicsAllContained(t *testing.T) {
	jobs := squareJobs(30)
	for _, i := range []int{0, 13, 29} {
		jobs[i] = func() (int, error) { panic(i) }
	}
	results := RunContext(context.Background(), jobs, 3) // fewer workers than panics: each worker survives at least one
	for _, i := range []int{0, 13, 29} {
		if !errors.Is(results[i].Err, simerr.ErrWorkerPanic) {
			t.Errorf("job %d err = %v, want ErrWorkerPanic class", i, results[i].Err)
		}
	}
	for i, r := range results {
		if i == 0 || i == 13 || i == 29 {
			continue
		}
		if r.Err != nil || r.Value != i*i {
			t.Errorf("job %d disturbed: %+v", i, r)
		}
	}
}

// TestPanicAndErrorCoexist: a recovered panic and a returned error in
// the same batch each land in their own job's slot.
func TestPanicAndErrorCoexist(t *testing.T) {
	sentinel := errors.New("plain failure")
	jobs := squareJobs(8)
	jobs[2] = func() (int, error) { panic("boom") }
	jobs[5] = func() (int, error) { return 0, sentinel }
	results := RunContext(context.Background(), jobs, 4)
	if !errors.Is(results[2].Err, simerr.ErrWorkerPanic) {
		t.Errorf("job 2 err = %v, want the recovered panic", results[2].Err)
	}
	if !errors.Is(results[5].Err, sentinel) {
		t.Errorf("job 5 err = %v, want sentinel", results[5].Err)
	}
}

// TestPanicWithErrorValue: a panic whose value is itself an error keeps
// that error matchable through the fault chain.
func TestPanicWithErrorValue(t *testing.T) {
	jobs := squareJobs(3)
	jobs[1] = func() (int, error) { panic(simerr.ErrConfig) }
	results := RunContext(context.Background(), jobs, 2)
	if !errors.Is(results[1].Err, simerr.ErrWorkerPanic) {
		t.Errorf("err = %v, want ErrWorkerPanic class", results[1].Err)
	}
	if !strings.Contains(results[1].Err.Error(), simerr.ErrConfig.Error()) {
		t.Errorf("panic error value missing from rendering: %v", results[1].Err)
	}
}
