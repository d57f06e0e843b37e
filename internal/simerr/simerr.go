// Package simerr defines the typed fault taxonomy of the simulation
// runtime. Every runtime fault the simulator contains — a corrupted or
// truncated trace, a panic inside a batch worker or a simulation run,
// an invalid configuration, a cancellation — is reported as a *Fault carrying the simulation
// context at the moment of the fault (workload, technique, PC,
// instruction counts) and classified by one of the errors.Is-able
// sentinels below.
//
// A fault is reported, never answered by another technique: a run that
// a fault ends early keeps its partial result with the fault in
// Result.Err, and a run that produced no result fails with the typed
// fault, so a sweep never silently drops or crashes on a faulted cell.
package simerr

import (
	"errors"
	"fmt"
	"strings"
)

// Sentinel fault classes. Match with errors.Is; every *Fault unwraps to
// exactly one of them (plus its underlying cause).
var (
	// ErrTraceCorrupt classifies a trace stream that ended mid-record,
	// overflowed a varint, or decoded to an impossible instruction —
	// anything other than a clean end-of-trace.
	ErrTraceCorrupt = errors.New("trace corrupt or truncated")

	// ErrWorkerPanic classifies a panic recovered inside a batch worker
	// or a simulation run.
	ErrWorkerPanic = errors.New("worker panicked")

	// ErrConfig classifies a request the simulator rejects up front: an
	// invalid configuration (e.g. a decoupling-queue lookahead beyond the
	// supported maximum) or a capability the source lacks (wpemul on a
	// trace interpreter, paper §III-B; checkpointing a source that cannot
	// snapshot). Config faults are fixed properties of the request, so
	// rerunning it cannot fix them.
	ErrConfig = errors.New("invalid configuration")

	// ErrCanceled classifies a run ended by operator cancellation: a
	// context deadline, a SIGINT, or an explicit cancel. Cancellation is
	// an instruction, not a malfunction — sweeps flush whatever partial
	// results exist with the canceled cells annotated.
	ErrCanceled = errors.New("run canceled")
)

// Fault is a classified simulation fault with diagnostic context. The
// zero value of every field means "unknown / not applicable"; Error
// renders only the fields that are set.
type Fault struct {
	// Kind is the sentinel class (ErrTraceCorrupt, ErrWorkerPanic, ...).
	Kind error
	// Op names the operation in progress ("decoding trace record",
	// "batch job 3", "simulation run").
	Op string
	// Workload identifies the simulated workload ("gap/bfs").
	Workload string
	// Technique is the wrong-path technique of the faulted run.
	Technique string
	// PC is the last program counter the frontend produced.
	PC uint64
	// Fetched counts instructions the functional side produced before
	// the fault (for trace faults: the record index).
	Fetched uint64
	// Consumed counts instructions the performance side popped from the
	// decoupling queue before the fault.
	Consumed uint64
	// Stack is the recovered goroutine stack for panic faults.
	Stack []byte
	// Err is the underlying cause, if any.
	Err error
}

// Error renders the fault class, context and cause.
func (f *Fault) Error() string {
	var b strings.Builder
	b.WriteString("simerr: ")
	if f.Kind != nil {
		b.WriteString(f.Kind.Error())
	} else {
		b.WriteString("fault")
	}
	if f.Op != "" {
		fmt.Fprintf(&b, ": %s", f.Op)
	}
	var ctx []string
	if f.Workload != "" {
		ctx = append(ctx, "workload="+f.Workload)
	}
	if f.Technique != "" {
		ctx = append(ctx, "technique="+f.Technique)
	}
	if f.PC != 0 {
		ctx = append(ctx, fmt.Sprintf("pc=%#x", f.PC))
	}
	if f.Fetched != 0 {
		ctx = append(ctx, fmt.Sprintf("fetched=%d", f.Fetched))
	}
	if f.Consumed != 0 {
		ctx = append(ctx, fmt.Sprintf("consumed=%d", f.Consumed))
	}
	if len(ctx) > 0 {
		fmt.Fprintf(&b, " [%s]", strings.Join(ctx, " "))
	}
	if f.Err != nil {
		fmt.Fprintf(&b, ": %v", f.Err)
	}
	if len(f.Stack) > 0 {
		fmt.Fprintf(&b, "\n%s", f.Stack)
	}
	return b.String()
}

// Unwrap exposes the class sentinel and the cause to errors.Is/As.
func (f *Fault) Unwrap() []error {
	var out []error
	if f.Kind != nil {
		out = append(out, f.Kind)
	}
	if f.Err != nil {
		out = append(out, f.Err)
	}
	return out
}

// Corrupt builds an ErrTraceCorrupt fault for a stream that broke while
// decoding record (0-based index of the record being read).
func Corrupt(op string, record uint64, cause error) *Fault {
	return &Fault{Kind: ErrTraceCorrupt, Op: op, Fetched: record, Err: cause}
}

// WorkerPanic builds an ErrWorkerPanic fault from a recovered panic
// value and the captured stack.
func WorkerPanic(op string, recovered any, stack []byte) *Fault {
	return &Fault{Kind: ErrWorkerPanic, Op: op, Stack: stack, Err: fmt.Errorf("panic: %v", recovered)}
}

// Config builds an ErrConfig fault for a configuration the simulator
// rejects up front.
func Config(op string, cause error) *Fault {
	return &Fault{Kind: ErrConfig, Op: op, Err: cause}
}

// Canceled builds an ErrCanceled fault. cause is the context's error
// (context.Canceled, context.DeadlineExceeded) when one is available.
func Canceled(op string, cause error) *Fault {
	return &Fault{Kind: ErrCanceled, Op: op, Err: cause}
}

// FirstLine renders err's message truncated at the first newline — the
// one-line form table cells, job statuses and log lines use for faults
// whose full rendering (a panic fault's captured stack) spans pages.
func FirstLine(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
