package core

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// A run, warmup and measured phase alike, runs in two stages that hand
// whole lanes to each other through a fixed ring (pipe), so the two
// halves of the core's host work run side by side.
//
// The stream stage runs on a goroutine of its own and does everything
// that depends only on the correct-path stream: it pops each lane from
// the decoupling queue (the functional frontend fills it inline), marks
// each record seen in the code cache, runs the branch predictor, takes
// the frontend's emulated path and, in the measured phase, asks the
// policy for the wrong path at each mispredict, and attaches every path
// to the lane.
//
// The timing stage runs on the caller's goroutine: fetch, dispatch,
// issue and commit, the cache hierarchy, the store queue, the
// statistics, the observability hooks and the lane hook. It decodes
// through a decode-only code cache of its own (dec), so the stages
// share no mutable state; a Meta is a pure function of its instruction.
//
// Handoff rule: the stream stage runs at most depth lanes, and at most
// two wrong paths per lane slot, ahead of the timing stage. A stage that
// has to wait polls, yielding its thread every lane-size polls, for as
// many yields as the lookahead has records — a few lanes' work — and
// only then parks: a parked goroutine is woken through the waker's
// scheduler queue, which costs more than a lane's work and for a while
// runs both stages on one thread. A parked stage is woken only once lag
// lanes have passed, or at once when the other stage is about to wait
// on it. At a lane after which the lane hook will write a snapshot
// (holdAt), the stream stage waits for the timing stage to finish that
// lane's hook before it starts the next lane, so a snapshot walks stream
// state that is exactly the one-goroutine run's.

// lane is one ring slot: the records of a lane and the wrong paths the
// stream stage attached to it. A warm lane belongs to the warmup phase:
// the stream stage attaches no wrong path to it and the timing stage
// only makes its untimed cache and TLB accesses.
type lane struct {
	recs []trace.DynInst // len is the lane size; n records are live
	n    int
	warm bool
	wps  []wrongPath // one per mispredicted record, in record order

	// bufs are the path buffers the lane's wrong paths live in, emulated
	// ones included; the stream stage pools them once the timing stage
	// has finished the lane (reclaim).
	bufs [][]trace.DynInst
	_    [40]byte // a slot per two cache lines
}

// wrongPath is the wrong path of the lane's record j, with the
// convergence the policy found for it (for the observability hook).
type wrongPath struct {
	j         int
	recs      []trace.DynInst
	converged bool
	convDist  uint64
}

// gate is one direction of the handoff: the progress one stage
// publishes, and the parking state of the stage that waits on it.
type gate struct {
	progress atomic.Uint64
	parked   atomic.Bool   // the waiter is parked
	want     atomic.Uint64 // the progress a parked waiter asks to be woken at
	wake     chan struct{} // token for a parked waiter
	_        [64]byte
}

// advance publishes progress v and wakes a parked waiter once v reaches
// what it wants, or at once when urgent.
func (g *gate) advance(v uint64, urgent bool) {
	g.progress.Store(v)
	if g.parked.Load() && (urgent || v >= g.want.Load()) && g.parked.CompareAndSwap(true, false) {
		g.wake <- struct{}{}
	}
}

// pipe is the lane ring between the two stages. Its groups sit on
// cache lines of their own: the sizes and channels, fixed for a run;
// the stream stage's bookkeeping, which only it writes; and the two
// gates. pub counts the lanes published, shifted left by one, plus 1
// once the stream ended (stream stage to timing stage); done counts the
// lanes the timing stage finished, lane hook included (timing stage to
// stream stage). stop asks the stream stage to return.
type pipe struct {
	lanes  []lane
	lag    uint64        // lanes a waiting stage lets pass before it is woken
	poll   int           // polls between yields of a waiting stage
	spin   int           // polls before it parks
	exited chan struct{} // one token when the stream goroutine returns
	_      [64]byte

	// The stream stage's bookkeeping: lanes published and reclaimed,
	// wrong paths held by unreclaimed lanes (at most budget while an
	// earlier lane can be waited for), the pool of path buffers and the
	// spare one; and fault, a stream-stage panic published with the end
	// of the stream.
	n, reclaimed uint64
	paths        int
	bufs         [][]trace.DynInst
	spare        []trace.DynInst
	fault        *simerr.Fault
	_            [64]byte

	pub, done gate
	stop      atomic.Bool
}

// init sizes the ring from the queue's lookahead and the lane size:
// depth lanes hold about one lookahead of records.
func (p *pipe) init(lookahead, laneSize int) {
	depth := max(2, lookahead/laneSize)
	p.lanes = make([]lane, depth)
	p.bufs = make([][]trace.DynInst, 0, depth)
	p.lag = uint64(max(1, depth/2))
	p.poll = laneSize
	p.spin = laneSize * lookahead
	p.pub.wake = make(chan struct{}, 1)
	p.done.wake = make(chan struct{}, 1)
	p.exited = make(chan struct{}, 1)
	for i := range p.lanes {
		ln := &p.lanes[i]
		ln.recs = make([]trace.DynInst, laneSize)
		ln.wps = make([]wrongPath, 0, laneSize)
		ln.bufs = make([][]trace.DynInst, 0, laneSize)
	}
}

// budget is the number of wrong paths the stream stage may hold ahead
// of the timing stage: two per lane slot.
func (p *pipe) budget() int { return 2 * len(p.lanes) }

// depth is the number of ring slots.
func (p *pipe) depth() uint64 { return uint64(len(p.lanes)) }

// publish makes lanes below n readable and, with end, marks the end of
// the stream; the end, like a hold (urgent), wakes a parked timing stage
// at once.
func (p *pipe) publish(n uint64, end, urgent bool) {
	v := n << 1
	if end {
		v |= 1
	}
	p.pub.advance(v, end || urgent)
}

// await blocks the calling stage until g's progress reaches need; false
// means the timing stage asked the stream stage to stop. The stage polls
// for spin polls, yielding its thread every poll polls, and then parks,
// to be woken once the progress reaches want. It stores want and its
// flag before its second look at the progress, and advance stores the
// progress before it looks at the flag, so one of them sees the other.
func (p *pipe) await(g *gate, need, want uint64) bool {
	for i := 0; i < p.spin; i++ {
		if p.stop.Load() {
			return false
		}
		if g.progress.Load() >= need {
			return true
		}
		if i%p.poll == p.poll-1 {
			runtime.Gosched()
		}
	}
	for {
		g.want.Store(want)
		g.parked.Store(true)
		if g.progress.Load() >= need || p.stop.Load() {
			if g.parked.CompareAndSwap(true, false) {
				return !p.stop.Load()
			}
			// A waker claimed the park first; its token is on the way.
		}
		<-g.wake
		if p.stop.Load() {
			return false
		}
		if g.progress.Load() >= need {
			return true
		}
	}
}

// awaitDone blocks the stream stage until the timing stage has finished
// want lanes; false means it was asked to stop.
func (p *pipe) awaitDone(want uint64) bool { return p.await(&p.done, want, want) }

// next returns lane d for the timing stage, or nil once the stream has
// ended before it; a stream-stage panic is re-raised here, on the
// caller's goroutine. The timing stage has taken every lane before d,
// so d is at most the lanes published, and progress 2d+1 means lane d
// or the end. A parked timing stage asks to be woken lag lanes later,
// but any lane already published when it parks ends the wait.
func (p *pipe) next(d uint64) *lane {
	p.await(&p.pub, 2*d+1, 2*(d+p.lag))
	if p.pub.progress.Load()>>1 > d {
		return &p.lanes[d%p.depth()]
	}
	if p.fault != nil {
		panic(p.fault) //wplint:allow-panic -- the stream stage's panic, re-raised on the caller's goroutine so the run's recover contains it
	}
	return nil
}

// joinStream stops the stream stage, waits for its goroutine to return
// and empties the ring, pooling every lane's path buffers. It runs on
// every exit of a run, a timing-stage panic included.
func (c *Core) joinStream() {
	p := &c.pipe
	p.stop.Store(true)
	p.done.advance(p.done.progress.Load(), true) // wake a parked stream stage
	<-p.exited
	for i := range p.lanes {
		c.reclaim(&p.lanes[i])
	}
	p.n, p.reclaimed = 0, 0
	p.pub.progress.Store(0)
	p.done.progress.Store(0)
	p.stop.Store(false)
	p.fault = nil
}

// stream is the stream stage's goroutine. It pops the warmup's lanes,
// then the measured phase's, until the stream ends, the instruction cap
// is reached, an Exit record is popped or the timing stage stops it, and
// publishes each. A panic is recovered here and published as the end of
// the stream, for the timing stage to re-raise.
func (c *Core) stream() {
	p := &c.pipe
	defer func() {
		if r := recover(); r != nil {
			p.fault = simerr.WorkerPanic("stream stage", r, debug.Stack())
			p.publish(p.n, true, true)
		}
		p.exited <- struct{}{}
	}()
	warm, insts, max := c.streamWarm, c.streamInsts, c.streamMax
	for {
		c.reclaimFinished()
		if p.n-p.reclaimed >= p.depth() {
			if !p.awaitDone(p.n - p.depth() + p.lag) {
				return
			}
			continue
		}
		if p.stop.Load() {
			return
		}
		ln := &p.lanes[p.n%p.depth()]
		dst := ln.recs
		ln.warm = warm > 0
		switch {
		case ln.warm:
			dst = dst[:min(warm, uint64(len(dst)))]
		case max > 0 && insts >= max:
			p.publish(p.n, true, true)
			return
		case max > 0:
			dst = dst[:min(max-insts, uint64(len(dst)))]
		}
		k := c.q.PopBatch(dst)
		if k == 0 {
			p.publish(p.n, true, true)
			return
		}
		c.streamLane(ln, k)
		exit, hold := ln.recs[k-1].Exit, false
		if ln.warm {
			warm -= uint64(k)
		} else {
			insts += uint64(k)
			hold = !exit && c.holdAt != nil && c.holdAt(insts)
		}
		p.n++
		p.publish(p.n, exit, hold)
		if exit || hold && !p.awaitDone(p.n) {
			return
		}
	}
}

// reclaimFinished reclaims every lane the timing stage has finished.
func (c *Core) reclaimFinished() {
	p := &c.pipe
	for d := p.done.progress.Load(); p.reclaimed < d; p.reclaimed++ {
		c.reclaim(&p.lanes[p.reclaimed%p.depth()])
	}
}

// reserve makes room for one more wrong path: while the budget is spent
// and published lanes are still in flight, it waits for the timing stage
// to finish some of them, waking it first in case it is parked. A lane
// that alone holds the budget goes over it, since no earlier lane is
// left to wait for.
func (c *Core) reserve() {
	p := &c.pipe
	for {
		c.reclaimFinished()
		if p.paths < p.budget() || p.reclaimed == p.n {
			return
		}
		p.publish(p.n, false, true)
		if !p.awaitDone(min(p.reclaimed+p.lag, p.n)) {
			return // stopping: the lane is never published
		}
	}
}

// streamLane runs the stream stage's work on the lane's first k records:
// the code cache's seen set, branch prediction, and at each mispredict
// of a measured lane the policy's wrong path. A warm lane keeps no wrong
// path: the emulated one is taken, to keep the frontend in step, and
// dropped, its buffer becoming the spare.
func (c *Core) streamLane(ln *lane, k int) {
	ln.n = k
	c.lane, c.laneN = ln.recs, k
	for j := 0; j < k; j++ {
		c.lanePos = j
		di := &ln.recs[j]
		m := c.code.InsertGet(di.PC, &di.In)
		if !m.IsControl() {
			continue
		}
		pred := c.bp.PredictAndUpdate(di.PC, di.In, di.Taken, di.NextPC)
		switch {
		case !pred.Mispredicted:
		case !ln.warm:
			ln.wps = append(ln.wps, c.wrongPathOf(ln, j, di, pred.Target))
		case c.wrongPaths != nil:
			c.pipe.spare = c.wrongPaths(di.Seq, c.spare()).Recs[:0]
		}
	}
	c.laneN, c.lanePos = 0, 0
}

// wrongPathOf takes the emulated path of the mispredicted record j, if
// any, and asks the policy for its wrong path. The lane keeps every path
// buffer the mispredict leaves with it: the emulated path's, handed over
// by the take, and Context.Buf when a built-in policy wrote the path
// there; any other slice a policy returns is copied into a path buffer,
// since the policy may reuse it at its next Begin while the timing stage
// still reads it.
func (c *Core) wrongPathOf(ln *lane, j int, br *trace.DynInst, target uint64) wrongPath {
	p := &c.pipe
	c.reserve()
	if c.wrongPaths != nil {
		c.ctx.Emulated = c.wrongPaths(br.Seq, c.spare())
		c.keep(ln, c.ctx.Emulated.Recs)
	}
	var prevDet, prevDist uint64
	if c.obs != nil {
		st := c.policy.Stats()
		prevDet, prevDist = st.ConvDetected, st.ConvDistSum
	}
	c.ctx.Buf = c.spare()[:0]
	wp := c.policy.Begin(&c.ctx, br, target)
	e := wrongPath{j: j, recs: wp}
	if c.obs != nil {
		if st := c.policy.Stats(); st.ConvDetected > prevDet {
			e.converged, e.convDist = true, st.ConvDistSum-prevDist
		}
	}
	switch {
	case len(wp) == 0:
	case cap(p.spare) > 0 && &wp[0] == &p.spare[:1][0]:
		c.keep(ln, p.spare)
	case len(c.ctx.Emulated.Recs) > 0 && &wp[0] == &c.ctx.Emulated.Recs[0]:
	default:
		e.recs = append(p.spare[:0], wp...)
		c.keep(ln, e.recs)
	}
	return e
}

// spare returns the stream stage's spare path buffer, taking one from
// the pool, or making one, when it holds none.
func (c *Core) spare() []trace.DynInst {
	p := &c.pipe
	if p.spare == nil {
		if k := len(p.bufs); k > 0 {
			p.spare, p.bufs = p.bufs[k-1], p.bufs[:k-1]
		} else {
			p.spare = make([]trace.DynInst, 0, c.ctx.MaxLen)
		}
	}
	return p.spare
}

// keep hands a path buffer, the spare or one the take handed over, to
// the lane.
func (c *Core) keep(ln *lane, buf []trace.DynInst) {
	ln.bufs = append(ln.bufs, buf)
	c.pipe.spare = nil
	c.pipe.paths++
}

// reclaim empties a lane the timing stage has finished with: its path
// buffers return to the pool.
func (c *Core) reclaim(ln *lane) {
	p := &c.pipe
	p.paths -= len(ln.bufs)
	p.bufs = append(p.bufs, ln.bufs...)
	clear(ln.bufs)
	ln.bufs, ln.wps = ln.bufs[:0], ln.wps[:0]
	ln.n = 0
}
