// Package frontend adapts the functional simulator to the decoupling
// queue: it executes the program instruction by instruction, emitting
// the dynamic records the performance simulator consumes.
//
// In wrong-path-emulation mode the frontend additionally keeps its own
// copy of the branch predictor — "the functional simulator contains a
// copy of the branch predictor model and initiates a list of wrong-path
// instructions when a misprediction is modeled" (§III-B). Because both
// predictor copies are updated by the same correct-path control
// instructions in program order using the same policy
// (branch.PredictAndUpdate), the frontend detects exactly the
// mispredictions the performance model will detect, checkpoints the
// functional state, emulates the predicted (wrong) path with stores
// suppressed, keeps the emulated records for the branch, and restores
// the checkpoint.
//
// The emulated paths live in a FIFO ring the frontend owns, one
// MaxLen-record buffer per path, tagged with its branch's Seq and the
// memory-operation counts taken while it was written. The core's stream
// stage takes the oldest at each mispredict it detects (WrongPaths): the
// take hands over the path's buffer and keeps the consumer's spare
// buffer in its place, so each buffer has one owner at a time and
// steady-state emulation allocates nothing. The frontend and its takes
// run on one goroutine.
package frontend

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/functional"
	"repro/internal/trace"
)

// Frontend drives a functional CPU and implements queue.Producer.
type Frontend struct {
	cpu *functional.CPU

	// pred is the wpemul-mode predictor copy; nil in the other modes.
	pred *branch.Unit

	// maxInsts stops production after that many correct-path
	// instructions (0 = unlimited).
	maxInsts uint64
	produced uint64

	// paths holds the untaken emulated wrong paths, each capped at
	// paths.size records (ROB + front-end buffers). consumed is set once
	// WrongPaths attached a consumer. Without one, each path is dropped
	// before the next is emulated.
	paths    ring
	consumed bool

	// err is the error that stopped production: a functional error, or
	// a take out of step with emulation.
	err error

	// Statistics.
	wpEmulations uint64
	wpEmulated   uint64
}

// Option configures a Frontend.
type Option func(*Frontend)

// WithWrongPathEmulation enables functional wrong-path emulation using
// a predictor initialized from cfg (it must equal the core's predictor
// configuration) and the given wrong-path length cap.
func WithWrongPathEmulation(cfg branch.Config, wpMaxLen int) Option {
	return func(f *Frontend) {
		f.pred = branch.New(cfg)
		f.paths.size = wpMaxLen
	}
}

// WithMaxInstructions caps the number of correct-path instructions
// produced.
func WithMaxInstructions(n uint64) Option {
	return func(f *Frontend) { f.maxInsts = n }
}

// New creates a frontend over the CPU.
func New(cpu *functional.CPU, opts ...Option) *Frontend {
	f := &Frontend{cpu: cpu}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// Next produces the next correct-path dynamic instruction; ok is false
// at program end, the instruction cap, or on a functional error
// (retrievable via Err).
func (f *Frontend) Next() (trace.DynInst, bool) {
	var di trace.DynInst
	if !f.step(&di) {
		return trace.DynInst{}, false
	}
	return di, true
}

// NextBatch fills dst with successive correct-path records and returns
// how many were written; fewer than len(dst) — including 0 — means the
// stream ended. The record sequence is identical to repeated Next
// calls (queue.BatchProducer's contract).
func (f *Frontend) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) && f.step(&dst[n]) {
		n++
	}
	return n
}

// step writes the next correct-path record into *di; false at program
// end, the instruction cap, or on a functional error.
func (f *Frontend) step(di *trace.DynInst) bool {
	if f.err != nil || f.cpu.Halted() {
		return false
	}
	if f.maxInsts > 0 && f.produced >= f.maxInsts {
		return false
	}
	if err := f.cpu.Step(di); err != nil {
		f.err = err
		return false
	}
	f.produced++

	if f.pred != nil && di.IsControl() {
		pred := f.pred.PredictAndUpdate(di.PC, di.In, di.Taken, di.NextPC)
		if pred.Mispredicted {
			if !f.consumed {
				f.paths.reset()
			}
			wp, memOps, addrs := f.cpu.AppendWrongPath(f.paths.next(), pred.Target, f.paths.size)
			f.paths.push(span{seq: di.Seq, recs: wp, memOps: memOps, addrs: addrs})
			f.wpEmulations++
			f.wpEmulated += uint64(len(wp))
		}
	}
	return true
}

// WrongPaths attaches the consumer of the emulated wrong paths and
// returns its take function; nil when emulation is off. take(seq,
// spare) removes the oldest path, which must belong to the branch with
// that Seq, and returns its records and counts in the path's own
// buffer, which the consumer owns from then on; spare, emptied, takes
// the buffer's place for a later path. Both predictor copies see the
// same correct-path control stream, so the oldest path always belongs to
// the branch being taken; a take that finds another Seq is a bug, never
// data: it hands spare back, empty, as the path's records and sets an
// error that ends the stream (Err).
func (f *Frontend) WrongPaths() func(seq uint64, spare []trace.DynInst) trace.Path {
	if f.pred == nil {
		return nil
	}
	f.consumed = true
	return f.take
}

func (f *Frontend) take(seq uint64, spare []trace.DynInst) trace.Path {
	wp, ok := f.paths.take(seq, spare)
	if !ok && f.err == nil {
		want := "none"
		if f.paths.n > 0 {
			want = fmt.Sprint(f.paths.paths[f.paths.head].seq)
		}
		f.err = fmt.Errorf("frontend: wrong-path emulation out of step: the core took the path of branch %d, the oldest emulated path is %s", seq, want)
	}
	return wp
}

// Err returns the error that stopped production, if any: a functional
// error, or a take out of step with emulation.
func (f *Frontend) Err() error { return f.err }

// Produced returns the number of correct-path instructions emitted.
func (f *Frontend) Produced() uint64 { return f.produced }

// WPEmulations returns how many wrong paths were functionally emulated
// and how many wrong-path instructions that produced.
func (f *Frontend) WPEmulations() (paths, insts uint64) {
	return f.wpEmulations, f.wpEmulated
}

// ring is the FIFO of untaken emulated paths: slots head, head+1, …
// (modulo the power-of-two slot count) hold the n paths in emulation
// order, each in a buffer of size records' capacity that the slot owns
// until the path is taken. The ring doubles its slots only when a new
// path finds every slot in use.
type ring struct {
	size    int
	paths   []span
	head, n int
}

// span is one slot: the records emulated for branch seq, with memOps
// memory operations among them, addrs of which carry an address.
type span struct {
	seq           uint64
	recs          []trace.DynInst
	memOps, addrs uint64
}

// reset drops every path.
func (r *ring) reset() { r.head, r.n = 0, 0 }

// next returns the emptied buffer of the slot the next path is written
// into, growing the ring when every slot is in use.
func (r *ring) next() []trace.DynInst {
	if r.n == len(r.paths) {
		r.grow()
	}
	sp := &r.paths[(r.head+r.n)&(len(r.paths)-1)]
	if cap(sp.recs) < r.size {
		sp.recs = make([]trace.DynInst, 0, r.size)
	}
	return sp.recs[:0]
}

// push records the path just written into the next slot.
func (r *ring) push(sp span) {
	r.paths[(r.head+r.n)&(len(r.paths)-1)] = sp
	r.n++
}

// take hands over the oldest path if it belongs to seq, leaving spare
// in its slot; otherwise it takes nothing and hands spare back, empty.
func (r *ring) take(seq uint64, spare []trace.DynInst) (trace.Path, bool) {
	if r.n == 0 || r.paths[r.head].seq != seq {
		return trace.Path{Recs: spare[:0]}, false
	}
	sp := &r.paths[r.head]
	wp := trace.Path{Recs: sp.recs, MemOps: sp.memOps, AddrKnown: sp.addrs}
	sp.recs = spare[:0]
	r.head = (r.head + 1) & (len(r.paths) - 1)
	r.n--
	return wp, true
}

// grow doubles the slots and moves the paths, in order, to the front.
func (r *ring) grow() {
	paths := make([]span, max(2*len(r.paths), 2))
	for i := 0; i < r.n; i++ {
		paths[i] = r.paths[(r.head+i)&(len(r.paths)-1)]
	}
	r.paths, r.head = paths, 0
}
