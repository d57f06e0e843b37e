package simerr

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestFaultClassMatching(t *testing.T) {
	cause := errors.New("unexpected EOF")
	f := Corrupt("decoding trace record", 42, cause)
	if !errors.Is(f, ErrTraceCorrupt) {
		t.Error("Corrupt fault does not match ErrTraceCorrupt")
	}
	if !errors.Is(f, cause) {
		t.Error("Corrupt fault does not match its cause")
	}
	if errors.Is(f, ErrConfig) || errors.Is(f, ErrWorkerPanic) {
		t.Error("Corrupt fault matches an unrelated class")
	}
}

func TestFaultMatchesThroughWrapping(t *testing.T) {
	f := &Fault{Kind: ErrConfig, Workload: "gap/bfs", Technique: "wpemul", Fetched: 1000}
	wrapped := fmt.Errorf("job 3: %w", f)
	if !errors.Is(wrapped, ErrConfig) {
		t.Error("fmt.Errorf wrapping loses the class")
	}
	var got *Fault
	if !errors.As(wrapped, &got) || got.Fetched != 1000 {
		t.Error("errors.As cannot recover the Fault")
	}
}

func TestErrorRendering(t *testing.T) {
	f := &Fault{
		Kind: ErrCanceled, Op: "simulation run", Workload: "gap/bfs", Technique: "conv",
		PC: 0x4000, Fetched: 17, Consumed: 12,
	}
	msg := f.Error()
	for _, want := range []string{"canceled", "simulation run", "gap/bfs", "conv", "0x4000", "fetched=17", "consumed=12"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
}

func TestWorkerPanicCarriesStack(t *testing.T) {
	f := WorkerPanic("batch job 2", "boom", []byte("goroutine 1 [running]:\nmain.main()"))
	if !errors.Is(f, ErrWorkerPanic) {
		t.Error("WorkerPanic fault does not match ErrWorkerPanic")
	}
	if !strings.Contains(f.Error(), "goroutine 1") {
		t.Error("stack missing from rendering")
	}
	if !strings.Contains(f.Error(), "boom") {
		t.Error("panic value missing from rendering")
	}
}

func TestZeroFieldsOmitted(t *testing.T) {
	f := &Fault{Kind: ErrConfig}
	msg := f.Error()
	for _, banned := range []string{"workload=", "technique=", "pc=", "fetched=", "consumed="} {
		if strings.Contains(msg, banned) {
			t.Errorf("Error() = %q renders unset field %q", msg, banned)
		}
	}
}
