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
// The emulated paths live in a FIFO ring the frontend owns: each path
// is one contiguous run of records tagged with its branch's Seq and the
// memory-operation counts taken while it was written, and the core's
// stream stage takes the oldest at each mispredict it detects
// (WrongPaths). A taken path stays in the ring, readable, until the
// consumer releases it; its space is then recycled, so steady-state
// emulation allocates nothing. The frontend, its takes and its releases
// all run on one goroutine.
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

	// paths holds the emulated wrong paths, each capped at paths.size
	// records (ROB + front-end buffers): the taken ones the consumer has
	// not released yet, then the untaken ones. consumed is set once
	// WrongPaths attached a consumer. Without one, each path is released
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
			f.paths.push(span{seq: di.Seq, n: len(wp), memOps: memOps, addrs: addrs})
			f.wpEmulations++
			f.wpEmulated += uint64(len(wp))
		}
	}
	return true
}

// WrongPaths attaches the consumer of the emulated wrong paths and
// returns its take and release functions; both are nil when emulation
// is off. take(seq) removes the oldest untaken path, which must belong
// to the branch with that Seq, and returns its records and counts.
// release(n) gives back the n oldest taken paths: a taken path's
// records stay readable until then, so a consumer may hold several. Both
// predictor copies see the same correct-path control stream, so the
// oldest path always belongs to the branch being taken; a take that
// finds another Seq is a bug, never data: it returns no records and
// sets an error that ends the stream (Err).
func (f *Frontend) WrongPaths() (take func(seq uint64) trace.Path, release func(n int)) {
	if f.pred == nil {
		return nil, nil
	}
	f.consumed = true
	return f.take, f.paths.release
}

func (f *Frontend) take(seq uint64) trace.Path {
	wp, ok := f.paths.take(seq)
	if !ok && f.err == nil {
		want := "none"
		if f.paths.n > 0 {
			want = fmt.Sprint(f.paths.paths[f.paths.head()].seq)
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

// CPU returns the underlying functional CPU.
func (f *Frontend) CPU() *functional.CPU { return f.cpu }

// ring is the FIFO of emulated paths. Each path gets a slot of size
// records in recs, tagged in paths with its branch's Seq and length.
// Slots tail, tail+1, … (modulo the power-of-two slot count) hold the
// held paths, taken but not released, and the n untaken paths follow
// them from head on. The ring doubles its slots only when a new path
// finds every slot in use.
type ring struct {
	size          int
	recs          []trace.DynInst
	paths         []span
	tail, held, n int
}

// span tags one slot's path: n records emulated for branch seq, with
// memOps memory operations among them, addrs of which carry an address.
type span struct {
	seq           uint64
	n             int
	memOps, addrs uint64
}

// head is the slot of the oldest untaken path.
func (r *ring) head() int { return (r.tail + r.held) & (len(r.paths) - 1) }

// reset releases every path.
func (r *ring) reset() { r.tail, r.held, r.n = 0, 0, 0 }

// next returns the empty slot the next path is written into, growing
// the ring when every slot is in use.
func (r *ring) next() []trace.DynInst {
	if r.held+r.n >= len(r.paths) {
		r.grow()
	}
	s := (r.tail + r.held + r.n) & (len(r.paths) - 1)
	return r.recs[s*r.size : s*r.size : (s+1)*r.size]
}

// push records the path just written into the next slot.
func (r *ring) push(sp span) {
	r.paths[(r.tail+r.held+r.n)&(len(r.paths)-1)] = sp
	r.n++
}

// take moves the oldest untaken path to the held ones if it belongs to
// seq and returns it; false, with no path taken, otherwise.
func (r *ring) take(seq uint64) (trace.Path, bool) {
	h := r.head()
	if r.n == 0 || r.paths[h].seq != seq {
		return trace.Path{}, false
	}
	sp := r.paths[h]
	lo, hi := h*r.size, h*r.size+sp.n
	r.held++
	r.n--
	return trace.Path{Recs: r.recs[lo:hi:hi], MemOps: sp.memOps, AddrKnown: sp.addrs}, true
}

// release frees the k oldest held paths (all of them when fewer are
// held).
func (r *ring) release(k int) {
	k = min(k, r.held)
	if k > 0 {
		r.tail = (r.tail + k) & (len(r.paths) - 1)
		r.held -= k
	}
}

// grow doubles the slots and moves the held and untaken paths, in
// order, to the front. The old store is never written again, so the
// records of held paths already handed out stay readable there.
func (r *ring) grow() {
	paths := make([]span, max(2*len(r.paths), 2))
	recs := make([]trace.DynInst, len(paths)*r.size)
	for i := 0; i < r.held+r.n; i++ {
		s := (r.tail + i) & (len(r.paths) - 1)
		paths[i] = r.paths[s]
		copy(recs[i*r.size:], r.recs[s*r.size:s*r.size+paths[i].n])
	}
	r.recs, r.paths, r.tail = recs, paths, 0
}
