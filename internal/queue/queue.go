// Package queue implements the decoupling instruction queue between the
// functional and the performance simulator. The functional side runs
// ahead, filling the queue; the performance side consumes from it.
//
// The queue exposes the run-ahead to its consumer through PeekWindow:
// the convergence-exploitation technique "exploits the fact that the
// functional model runs ahead of the performance model, so we can take
// a peek in the future correct-path instructions" (§III-C). The queue
// guarantees a configured minimum lookahead by refilling from the
// producer on demand; near program end, a peek simply reports that
// fewer instructions remain (the paper's "skip the convergence check"
// case). The ring is sized once, to the power of two above the
// lookahead, and a peek at or past that capacity comes back empty: the
// sim layer derives the lookahead from the core configuration so that
// it lies above the deepest peek any built-in policy makes.
//
// The producer runs inline, inside PopBatch and PeekWindow, on the
// consumer's goroutine (the core's stream stage).
package queue

import (
	"fmt"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// MaxLookahead is the largest accepted fill target. One DynInst is 64
// bytes, so it bounds a single ring at 512 MB — far beyond any derived
// lookahead (the sim layer's is ~2×ROB) but small enough that a
// runaway configuration fails up front with a typed fault instead of an
// allocation crash.
const MaxLookahead = 1 << 22

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

// Queue is a lookahead buffer over a Producer. It and its producer
// belong to one goroutine.
type Queue struct {
	src  Producer
	buf  []trace.DynInst // ring buffer; len is a power of two
	head int             // index of next instruction to pop
	n    int             // live entries the consumer may read
	done bool            // producer exhausted

	// lookahead is the fill target maintained before every PopBatch.
	lookahead int
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

// fill refills the ring up to target records, handing the producer
// contiguous ring segments — at most two per wrap — instead of one slot
// per call. The record sequence, and therefore every simulated
// statistic, is that of per-record Next calls. target never exceeds the
// capacity: the lookahead lies below it, and PeekWindow refuses an
// index at or past it before refilling.
func (q *Queue) fill(target int) {
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
	n := len(dst)
	q.fill(q.lookahead)
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
	// Consumed slots are not cleared: records hold no pointers, and
	// every producer overwrites whole records.
	q.head = (q.head + n) & mask
	q.n -= n
	// Restore the per-instruction steady state (lookahead-1 buffered):
	// a per-record consumer would have refilled before each of the n
	// pops, ending one short of the target.
	q.fill(q.lookahead - 1)
	return n
}

// Lookahead returns the fill target the queue keeps ahead of its
// consumer.
func (q *Queue) Lookahead() int { return q.lookahead }

// PeekWindow returns a contiguous read-only view of the buffered
// future instructions starting at index i (0 = the next record
// PopBatch returns), at most max records and at most up to the ring's
// wrap point — callers walk forward by re-requesting at
// i+len(window). An empty window means program end past i, or i at or
// past the ring's capacity.
//
// Refill parity: the window only refills the producer up to i+1 and
// otherwise serves what is already buffered, so a windowed walk pulls
// exactly the records a peek-by-one walk would have pulled — the
// guarantee that keeps batched convergence searches bit-exact.
//
// The returned slice aliases the ring: it stays valid until the next
// PopBatch.
func (q *Queue) PeekWindow(i, max int) []trace.DynInst {
	if i < 0 || max < 1 || i >= len(q.buf) {
		return nil
	}
	if i >= q.n {
		q.fill(i + 1)
		if i >= q.n {
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
