// Package wpflow is a wplint fixture for the interprocedural taint
// pass: wrong-path emulation results, wall-clock reads and recovered
// panic values must not reach committed state, correct-path statistics
// or reported aggregates — except through checkpoint windows, the
// typed-fault constructors, and the other approved APIs.
package wpflow

import (
	"time"

	"repro/internal/core"
	"repro/internal/functional"
	"repro/internal/sim"
	"repro/internal/simerr"
)

// Clean updates correct-path statistics from untainted inputs: passes.
func Clean(s *core.Stats, n uint64) {
	s.Instructions += n
	s.Cycles = n + 1
}

// DirectLeak stores a value derived from the wrong-path stream into a
// correct-path statistic: flagged.
func DirectLeak(cpu *functional.CPU, s *core.Stats) {
	wp, _, _ := cpu.AppendWrongPath(nil, 0x40, 8)
	s.Instructions += uint64(len(wp)) // want: wrong-path-tainted value flows into correct-path statistic core.Stats.Instructions
}

// addCycles is the helper Interproc leaks through: its parameter n
// reaches the core.Stats.Cycles sink.
func addCycles(s *core.Stats, n uint64) {
	s.Cycles += n
}

// Interproc leaks the wrong-path path length through one call hop:
// flagged at the call site, attributing the flow via addCycles.
func Interproc(cpu *functional.CPU, s *core.Stats) {
	wp, _, _ := cpu.AppendWrongPath(nil, 0x40, 8)
	addCycles(s, uint64(len(wp))) // want: via addCycles
}

// CommitLeak drives committed architectural state from a wrong-path
// target with no checkpoint open: flagged.
func CommitLeak(cpu *functional.CPU) {
	wp, _, _ := cpu.AppendWrongPath(nil, 0x40, 4)
	cpu.SetPC(wp[0].PC) // want: committed architectural state functional.CPU.pc
}

// SanitizedByRestore touches committed state inside a checkpoint window
// that is rolled back: passes — that is the paper's speculative-window
// discipline, not a leak.
func SanitizedByRestore(cpu *functional.CPU) {
	wp, _, _ := cpu.AppendWrongPath(nil, 0x40, 4)
	cp := cpu.Checkpoint()
	cpu.SetPC(wp[0].PC)
	cpu.Restore(cp)
}

// PanicLeak copies a recovered panic value into a reported aggregate:
// flagged. Wrapping it as a typed fault in the exempt Err field is the
// sanctioned route.
func PanicLeak(res *sim.Result) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if v, ok := r.(uint64); ok {
			res.MemAccesses = v // want: recovered-panic-tainted value flows into reported aggregate sim.Result.MemAccesses
		}
		res.Err = simerr.WorkerPanic("fixture", r, nil)
	}()
}

// WallBias stores a wall-clock reading in a simulated-time aggregate:
// flagged as a warning (it biases reported numbers, not simulated
// state). Result.Wall is the one aggregate that is a wall-clock value.
func WallBias(res *sim.Result, start time.Time) {
	res.Wall = time.Since(start)
	res.FunctionalInsts = uint64(time.Since(start)) // want: host-wall-clock-tainted value flows into reported aggregate sim.Result.FunctionalInsts
}

// ResultLit builds a reported aggregate directly from wrong-path data
// in a composite literal: flagged on the field value.
func ResultLit(cpu *functional.CPU) sim.Result {
	wp, _, _ := cpu.AppendWrongPath(nil, 0x40, 2)
	return sim.Result{
		MemAccesses: uint64(len(wp)), // want: reported aggregate sim.Result.MemAccesses
	}
}

// Waived carries an explicit flow directive: suppressed.
func Waived(cpu *functional.CPU, s *core.Stats) {
	wp, _, _ := cpu.AppendWrongPath(nil, 0x40, 2)
	s.Cycles = uint64(len(wp)) //wplint:flow -- fixture: deliberate waiver to exercise the escape hatch
}
