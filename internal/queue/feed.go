package queue

import (
	"runtime/debug"
	"sync/atomic"

	"repro/internal/simerr"
)

// feed runs the producer on a goroutine of its own, so the functional
// frontend fills the ring while the core consumes it — the parallelism
// decoupled functional-first simulation is built for. It never writes
// past the fill target the inline queue would have reached by the same
// call: lookahead−1 records ahead of the consumer after each PopBatch,
// raised to i+1 by a deeper PeekWindow. The producer therefore steps,
// emulates and stores exactly what the inline fill would have, and
// once it has caught up with the target (Settle) every counter and
// every snapshot byte is the inline run's.
//
// Handoffs are coarse, because waking a parked goroutine costs about as
// much as the producer writing a lane of records: a producer that has
// caught up spins briefly, then parks, and the consumer wakes it only
// once the target has run lag records ahead of it — or at once when the
// consumer needs a record not written yet. The producer publishes its
// progress every grain records. All three constants derive from the
// lookahead.
type feed struct {
	grain, lag uint64 // records per publication; wake-up distance
	spin       int    // polls before parking (about a microsecond)

	wake   chan struct{} // token for a parked producer
	ready  chan struct{} // token for a waiting consumer
	exited chan struct{} // closed when the producer goroutine returns
	_      [64]byte

	// target is the fill target, counted like Queue.popped; only the
	// consumer raises it, and limit is the consumer's own copy. stop
	// asks the producer to return.
	target atomic.Uint64
	stop   atomic.Bool
	limit  uint64
	_      [64]byte

	// filled is the producer's progress: records written, counted like
	// Queue.popped, shifted left by one, plus 1 once the stream ended.
	filled atomic.Uint64
	_      [64]byte

	// parked is set while the producer sleeps on wake; want is the
	// progress a consumer sleeping on ready waits for (0: none).
	parked atomic.Bool
	want   atomic.Uint64

	// fault is the producer's panic, published with the end of stream.
	fault *simerr.Fault
}

// Start moves the producer onto a goroutine of its own. From here until
// Stop the producer writes ahead of the consumer, up to the inline fill
// target; the queue's methods still belong to the consumer's goroutine.
// The source must not be touched by anyone else until Settle returns.
// A queue whose stream has already ended stays inline.
func (q *Queue) Start() {
	if q.feed != nil || q.done {
		return
	}
	mark := q.popped + uint64(q.n)
	f := &feed{
		grain:  uint64(max(1, q.lookahead/16)),
		lag:    uint64(max(1, q.lookahead/2)),
		spin:   q.lookahead,
		wake:   make(chan struct{}, 1),
		ready:  make(chan struct{}, 1),
		exited: make(chan struct{}),
		limit:  mark,
	}
	f.target.Store(mark)
	f.filled.Store(mark << 1)
	q.feed = f
	go q.produce(f, mark, (q.head+q.n)&(len(q.buf)-1))
}

// Settle waits until the producer has written every record the fill
// target allows, or the stream has ended, and re-raises a producer
// panic on the calling goroutine. Until the consumer next raises the
// target, the producer touches neither the source nor the ring, so the
// source may be walked for a snapshot or read for results.
func (q *Queue) Settle() {
	if f := q.feed; f != nil {
		q.await(int(f.limit - q.popped))
	}
}

// Stop ends the producer goroutine, whatever it was doing, and returns
// the queue to inline filling from where the producer left off. It
// neither settles nor re-raises a producer panic, so it is safe on
// every exit path, a consumer panic included; a second call is a no-op.
func (q *Queue) Stop() {
	f := q.feed
	if f == nil {
		return
	}
	q.feed = nil
	f.stop.Store(true)
	f.wakeParked()
	<-f.exited
	v := f.filled.Load()
	q.n = int(v>>1 - q.popped)
	q.done = v&1 != 0
}

// produce is the producer goroutine: it writes grains of records up to
// the target and publishes each, and returns at the end of the stream,
// on Stop, or after recovering a panic, which it publishes as the end
// of the stream for the consumer to re-raise.
func (q *Queue) produce(f *feed, written uint64, w int) {
	defer close(f.exited)
	defer func() {
		if r := recover(); r != nil {
			f.fault = simerr.WorkerPanic("functional frontend", r, debug.Stack())
			f.publish(written, true)
		}
	}()
	mask := len(q.buf) - 1
	for !f.stop.Load() {
		t := f.target.Load()
		if written == t {
			if !f.idle(written) {
				return
			}
			continue
		}
		k := int(min(t-written, f.grain, uint64(len(q.buf)-w)))
		got := NextBatchOf(q.src, q.buf[w:w+k])
		written += uint64(got)
		w = (w + got) & mask
		f.publish(written, got == 0)
		if got == 0 {
			return
		}
	}
}

// idle waits until the target passes written, spinning before it
// parks; false means Stop asked the producer to return. A parked
// producer resumes on its own only when the consumer would wake it:
// the target is lag records ahead, or the consumer waits for a record.
func (f *feed) idle(written uint64) bool {
	for i := 0; i < f.spin; i++ {
		if f.target.Load() > written || f.stop.Load() {
			return !f.stop.Load()
		}
	}
	f.parked.Store(true)
	if f.target.Load() >= written+f.lag || f.want.Load() != 0 || f.stop.Load() {
		if f.parked.CompareAndSwap(true, false) {
			return !f.stop.Load()
		}
		// A waker claimed the park first; its token is on the way.
	}
	<-f.wake
	return !f.stop.Load()
}

// publish makes the records up to written readable, marks the end of
// the stream when end is set, and wakes a consumer waiting for them.
func (f *feed) publish(written uint64, end bool) {
	v := written << 1
	if end {
		v |= 1
	}
	f.filled.Store(v)
	if w := f.want.Load(); w != 0 && reached(v, w) && f.want.CompareAndSwap(w, 0) {
		f.ready <- struct{}{}
	}
}

// advance raises the fill target to t. A parked producer is woken only
// once it is lag records behind the new target.
func (f *feed) advance(t uint64) {
	if t <= f.limit {
		return
	}
	f.limit = t
	f.target.Store(t)
	if f.parked.Load() && t >= f.filled.Load()>>1+f.lag {
		f.wakeParked()
	}
}

// wakeParked wakes the producer if it is parked.
func (f *feed) wakeParked() {
	if f.parked.Load() && f.parked.CompareAndSwap(true, false) {
		f.wake <- struct{}{}
	}
}

// await makes the first k records ahead of the consumer readable, or
// as many as the stream has left; k never exceeds the fill target. It
// waits for the producer when it must, and re-raises its panic.
func (q *Queue) await(k int) {
	if q.n >= k || q.done {
		return
	}
	f := q.feed
	need := q.popped + uint64(k)
	v := f.filled.Load()
	if !reached(v, need) {
		v = f.wait(need)
	}
	q.n = int(v>>1 - q.popped)
	if v&1 != 0 {
		q.done = true
		if f.fault != nil {
			panic(f.fault) //wplint:allow-panic -- the producer goroutine's panic, re-raised on the consumer's so the run's recover contains it
		}
	}
}

// wait blocks until the producer has written need records or ended,
// waking it if it is parked, and returns its progress. want is stored
// before the second look at parked, and the producer stores parked
// before it looks at want, so one of them sees the other.
func (f *feed) wait(need uint64) uint64 {
	f.wakeParked()
	for i := 0; i < f.spin; i++ {
		if v := f.filled.Load(); reached(v, need) {
			return v
		}
	}
	f.want.Store(need)
	f.wakeParked()
	if v := f.filled.Load(); reached(v, need) && f.want.CompareAndSwap(need, 0) {
		return v
	}
	// The producer publishes need (or the end) and hands over a token. A
	// producer that left without publishing the end (runtime.Goexit in
	// the source) has ended the stream all the same.
	select {
	case <-f.ready:
		return f.filled.Load()
	case <-f.exited:
		return f.filled.Load() | 1
	}
}

// reached reports whether progress v covers need records or the end of
// the stream.
func reached(v, need uint64) bool { return v&1 != 0 || v>>1 >= need }
