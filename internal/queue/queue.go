// Package queue implements the decoupling instruction queue between the
// functional and the performance simulator. The functional side runs
// ahead, filling the queue; the performance side consumes from it.
//
// The queue exposes the run-ahead to its consumer through PeekWindow:
// the convergence-exploitation technique "exploits the fact that the
// functional model runs ahead of the performance model, so we can take
// a peek in the future correct-path instructions" (§III-C). The queue
// guarantees a configurable minimum lookahead by refilling from the
// producer on demand; near program end, a peek simply reports that
// fewer instructions remain (the paper's "skip the convergence check"
// case). A peek deeper than the current ring grows it (power-of-two
// steps, up to MaxCapacity), so a deep convergence search is answered
// from the program rather than silently refused at an allocation
// boundary.
package queue

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simerr"
	"repro/internal/trace"
)

// MaxLookahead is the largest accepted fill target, and MaxCapacity
// (its next power of two) the ceiling the ring can grow to. One DynInst
// is a few dozen bytes, so the ceiling bounds a single queue at low
// hundreds of MB — far beyond any configured lookahead (the sim layer
// derives ~2×ROB) but small enough that a runaway configuration fails
// up front with a typed fault instead of an allocation crash.
const (
	MaxLookahead = 1 << 22
	MaxCapacity  = 1 << 23
)

// Producer supplies dynamic instructions; ok is false at program end.
type Producer interface {
	Next() (trace.DynInst, bool)
}

// BatchProducer is the optional batched counterpart of Producer: one
// call fills a lane of records and returns how many were written
// (0 = program end, terminal). A producer implementing it lets the
// queue refill entire ring segments with one interface call; the
// record sequence must be identical to repeated Next calls.
type BatchProducer interface {
	NextBatch(dst []trace.DynInst) int
}

// NextBatchOf fills dst from p, using the batched path when p supports
// it and falling back to per-record Next calls otherwise. It returns
// the number of records written; 0 means end of stream only if dst is
// non-empty. The queue refills through it, and producer wrappers (fault
// injectors, sources) use it to forward batches without caring which
// interface their inner producer implements.
func NextBatchOf(p Producer, dst []trace.DynInst) int {
	if bp, ok := p.(BatchProducer); ok {
		return bp.NextBatch(dst)
	}
	n := 0
	for n < len(dst) {
		di, ok := p.Next()
		if !ok {
			break
		}
		dst[n] = di
		n++
	}
	return n
}

// Queue is a lookahead buffer over a Producer. It is not safe for
// concurrent use; the parallel frontend mode wraps the producer, not
// the queue.
type Queue struct {
	src  Producer
	buf  []trace.DynInst // ring buffer; len is a power of two
	head int             // index of next instruction to pop
	n    int             // live entries
	done bool            // producer exhausted

	// lookahead is the fill target maintained before every PopBatch.
	lookahead int

	// obs is the optional instrumentation bundle (nil when disabled; the
	// handles inside are themselves nil-safe).
	obs *obs.QueueObs

	// popped counts the records consumed so far.
	popped uint64
}

// New creates a queue that keeps at least lookahead instructions
// buffered ahead of the consumer. A lookahead beyond MaxLookahead is
// rejected with a typed simerr.ErrConfig fault.
func New(src Producer, lookahead int) (*Queue, error) {
	if lookahead < 1 {
		lookahead = 1
	}
	if lookahead > MaxLookahead {
		return nil, simerr.Config("sizing decoupling queue",
			fmt.Errorf("queue: lookahead %d exceeds maximum %d", lookahead, MaxLookahead))
	}
	cap_ := 1
	for cap_ < lookahead+1 {
		cap_ *= 2
	}
	return &Queue{src: src, buf: make([]trace.DynInst, cap_), lookahead: lookahead}, nil
}

// SetObs attaches the instrumentation bundle; nil detaches it. The
// uninstrumented hot path pays one nil check per operation.
func (q *Queue) SetObs(o *obs.QueueObs) { q.obs = o }

// fill refills the ring up to target records (at most its capacity),
// handing the producer contiguous ring segments — at most two per wrap
// — instead of one slot per call. The record sequence, and therefore
// every simulated statistic, is that of per-record Next calls.
func (q *Queue) fill(target int) {
	if target > len(q.buf) {
		target = len(q.buf)
	}
	for !q.done && q.n < target {
		w := (q.head + q.n) & (len(q.buf) - 1)
		k := target - q.n
		if room := len(q.buf) - w; k > room {
			k = room
		}
		got := NextBatchOf(q.src, q.buf[w:w+k])
		if got == 0 {
			q.done = true
			return
		}
		q.n += got
	}
}

// grow re-rings the buffer to the next power of two holding min
// entries. It reports false — leaving the queue untouched — when min
// exceeds MaxCapacity.
func (q *Queue) grow(min int) bool {
	if min > MaxCapacity {
		return false
	}
	newCap := len(q.buf)
	for newCap < min {
		newCap *= 2
	}
	nbuf := make([]trace.DynInst, newCap)
	for j := 0; j < q.n; j++ {
		nbuf[j] = q.buf[(q.head+j)&(len(q.buf)-1)]
	}
	q.buf = nbuf
	q.head = 0
	if q.obs != nil {
		q.obs.Grows.Inc()
	}
	return true
}

// PopBatch removes up to len(dst) instructions into dst and returns
// how many were written; 0 means the program has ended. The batch
// stops after (and includes) an Exit record, so records beyond a
// program exit stay queued — exactly what a per-instruction consumer
// would leave behind.
//
// Refill discipline: the pull pattern from the producer is identical
// to len(dst) successive per-record pops (each topping up to the
// lookahead first) — the queue tops up to the lookahead target before
// copying and restores the lookahead-1 steady state afterwards — so
// the functional side executes exactly as many instructions as it
// would under per-instruction consumption, keeping batched results
// bit-identical (including FunctionalInsts).
func (q *Queue) PopBatch(dst []trace.DynInst) int {
	if len(dst) == 0 {
		return 0
	}
	q.fill(q.lookahead)
	if q.obs != nil {
		q.obs.Occupancy.Observe(uint64(q.n))
	}
	n := len(dst)
	if n > q.n {
		n = q.n
	}
	if n == 0 {
		return 0
	}
	mask := len(q.buf) - 1
	c1 := n
	if room := len(q.buf) - q.head; c1 > room {
		c1 = room
	}
	copy(dst[:c1], q.buf[q.head:q.head+c1])
	if c1 < n {
		copy(dst[c1:n], q.buf[:n-c1])
	}
	// Stop after the first Exit record.
	for i := 0; i < n; i++ {
		if dst[i].Exit {
			n = i + 1
			break
		}
	}
	// Release consumed slots (drop attached WP streams).
	e1 := q.head + n
	if e1 <= len(q.buf) {
		clear(q.buf[q.head:e1])
	} else {
		clear(q.buf[q.head:])
		clear(q.buf[:e1-len(q.buf)])
	}
	q.head = (q.head + n) & mask
	q.n -= n
	q.popped += uint64(n)
	// Restore the per-instruction steady state (lookahead-1 buffered):
	// a per-record consumer would have refilled before each of the n
	// pops, ending one short of the target.
	q.fill(q.lookahead - 1)
	return n
}

// PeekWindow returns a contiguous read-only view of the buffered
// future instructions starting at index i (0 = the next record
// PopBatch returns), at most max records and at most up to the ring's
// wrap point — callers walk forward by re-requesting at
// i+len(window). An empty window means program end past i, or i
// beyond the capacity ceiling (counted as a clipped peek), and the
// ring grows, up to MaxCapacity, for deeper peeks.
//
// Refill parity: the window only refills the producer up to i+1 and
// otherwise serves what is already buffered, so a windowed walk pulls
// exactly the records a peek-by-one walk would have pulled — the
// guarantee that keeps batched convergence searches bit-exact.
//
// The returned slice aliases the ring: it stays valid until the next
// PopBatch (deeper peeks may re-ring the buffer, but the old
// backing array keeps its records, so earlier windows stay readable).
func (q *Queue) PeekWindow(i, max int) []trace.DynInst {
	if i < 0 || max < 1 {
		return nil
	}
	if q.obs != nil {
		q.obs.PeekDepth.Observe(uint64(i))
	}
	if i >= len(q.buf) && !q.grow(i+1) {
		if q.obs != nil {
			if !q.done {
				q.obs.PeekClipped.Inc()
			}
			q.obs.PeekMiss.Inc()
		}
		return nil
	}
	if i >= q.n {
		q.fill(i + 1)
		if i >= q.n {
			if q.obs != nil {
				q.obs.PeekMiss.Inc()
			}
			return nil
		}
	}
	avail := q.n - i
	if avail > max {
		avail = max
	}
	start := (q.head + i) & (len(q.buf) - 1)
	end := start + avail
	if end > len(q.buf) {
		end = len(q.buf)
	}
	return q.buf[start:end]
}

// Len returns the number of currently buffered instructions.
func (q *Queue) Len() int { return q.n }

// Popped returns the number of instructions consumed so far.
func (q *Queue) Popped() uint64 { return q.popped }

// Lookahead returns the guaranteed fill target.
func (q *Queue) Lookahead() int { return q.lookahead }

// Cap returns the current ring capacity (exported for boundary tests).
func (q *Queue) Cap() int { return len(q.buf) }
