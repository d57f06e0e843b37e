package frontend_test

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/frontend"
	"repro/internal/simerr"
)

// drainParallel consumes the stream to end-of-stream and returns the
// instruction count.
func drainParallel(p *frontend.Parallel) int {
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			return n
		}
		n++
	}
}

// TestParallelProducerPanicContained: a panic inside the producer
// goroutine must not crash the process; the consumer sees a clean
// end-of-stream and Err reports a typed ErrWorkerPanic carrying the
// stack.
func TestParallelProducerPanicContained(t *testing.T) {
	p := frontend.NewParallel(faultinject.PanicAt(&countProducer{max: 1000}, 500, "boom"), 64, 4)
	n := drainParallel(p)
	if n >= 500 {
		t.Errorf("delivered %d instructions past the panic point", n)
	}
	err := p.Err()
	if !errors.Is(err, simerr.ErrWorkerPanic) {
		t.Fatalf("Err() = %v, want ErrWorkerPanic class", err)
	}
	var f *simerr.Fault
	if !errors.As(err, &f) || len(f.Stack) == 0 {
		t.Error("recovered panic fault carries no stack")
	}
	// Close after the panic must not hang or panic.
	p.Close()
	p.Close()
}

// TestParallelCloseAfterPanicNoLeak: Close after a producer panic
// leaves no goroutine behind, and double-Close is safe.
func TestParallelCloseAfterPanicNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		p := frontend.NewParallel(faultinject.PanicAt(&countProducer{max: 100}, 1, "early"), 8, 2)
		p.Close()
		p.Close()
	}
	waitForGoroutines(t, before)
}

// TestParallelCloseNoLeak: the plain lifecycle leaves no goroutines —
// both a fully drained stream and an early Close.
func TestParallelCloseNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		p := frontend.NewParallel(&countProducer{max: 10_000}, 64, 2)
		if i%2 == 0 {
			drainParallel(p)
		} else {
			p.Next()
		}
		p.Close()
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count drops back to the
// baseline (exiting goroutines unwind asynchronously after wg.Wait).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
