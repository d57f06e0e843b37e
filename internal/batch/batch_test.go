package batch

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// squareJobs builds n jobs whose results encode their index, with
// enough work per job that the -race runs genuinely interleave.
func squareJobs(n int) []func() (int, error) {
	jobs := make([]func() (int, error), n)
	for i := range jobs {
		jobs[i] = func() (int, error) {
			acc := 0
			for j := 0; j < 1000; j++ {
				acc += i * i
			}
			return acc / 1000, nil
		}
	}
	return jobs
}

// TestOrderPreserved: results land at their job's index for every
// worker count, including counts above the job count.
func TestOrderPreserved(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		for i, r := range RunContext(context.Background(), squareJobs(33), workers) {
			if r.Err != nil {
				t.Fatalf("workers=%d job %d: %v", workers, i, r.Err)
			}
			if r.Value != i*i {
				t.Errorf("workers=%d job %d: got %d, want %d", workers, i, r.Value, i*i)
			}
		}
	}
}

// TestParallelMatchesSerial: the whole result slice must be
// bit-identical between workers=1 and workers=N — the batch engine's
// core guarantee. The test body races under -race via CI's make check.
func TestParallelMatchesSerial(t *testing.T) {
	serial := RunContext(context.Background(), squareJobs(50), 1)
	parallel := RunContext(context.Background(), squareJobs(50), 8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("job %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
	}
}

// TestPerJobErrors: a failing job must not disturb its neighbours, and
// each failure lands in its own job's slot.
func TestPerJobErrors(t *testing.T) {
	sentinel := errors.New("job 3 broke")
	jobs := squareJobs(6)
	jobs[3] = func() (int, error) { return 0, sentinel }
	jobs[5] = func() (int, error) { return 0, fmt.Errorf("job 5 broke too") }
	results := RunContext(context.Background(), jobs, 4)
	for _, i := range []int{0, 1, 2, 4} {
		if results[i].Err != nil || results[i].Value != i*i {
			t.Errorf("job %d disturbed by neighbour failure: %+v", i, results[i])
		}
	}
	if !errors.Is(results[3].Err, sentinel) {
		t.Errorf("job 3 error = %v, want sentinel", results[3].Err)
	}
	if results[5].Err == nil {
		t.Error("job 5 error lost")
	}
}

// TestEveryJobRunsOnce: the index dispenser must hand each job to
// exactly one worker.
func TestEveryJobRunsOnce(t *testing.T) {
	var runs [100]atomic.Int32
	jobs := make([]func() (int, error), len(runs))
	for i := range jobs {
		jobs[i] = func() (int, error) {
			runs[i].Add(1)
			return 0, nil
		}
	}
	RunContext(context.Background(), jobs, 16)
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Errorf("job %d ran %d times", i, got)
		}
	}
}

func TestEmptyAndNilJobs(t *testing.T) {
	if got := RunContext[int](context.Background(), nil, 8); len(got) != 0 {
		t.Errorf("nil jobs produced %d results", len(got))
	}
	results := RunContext(context.Background(), []func() (int, error){nil, func() (int, error) { return 7, nil }}, 2)
	if results[0].Value != 0 || results[0].Err != nil {
		t.Errorf("nil job result = %+v, want zero", results[0])
	}
	if results[1].Value != 7 {
		t.Errorf("job after nil = %+v", results[1])
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
	// workers <= 0 must select the default pool, not deadlock or panic.
	for _, workers := range []int{0, -3} {
		for i, r := range RunContext(context.Background(), squareJobs(9), workers) {
			if r.Err != nil || r.Value != i*i {
				t.Errorf("workers=%d job %d: %+v", workers, i, r)
			}
		}
	}
}
