package core

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// The measured loop runs in two stages that hand whole lanes to each
// other through a fixed ring (pipe), so the two halves of the core's
// host work run side by side.
//
// The stream stage runs on a goroutine of its own and does everything
// that depends only on the correct-path stream: it pops each lane from
// the decoupling queue (the functional frontend fills it inline), marks
// each record seen in the code cache, runs the branch predictor, takes
// the frontend's emulated path and asks the policy for the wrong path
// at each mispredict, and attaches every path to the lane.
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
// stream stage attached to it.
type lane struct {
	recs []trace.DynInst // len is the lane size; n records are live
	n    int
	wps  []wrongPath // one per mispredicted record, in record order

	// bufs are the path buffers the lane's wrong paths live in, and
	// taken counts the frontend's emulated paths it holds; the stream
	// stage gives both back once the timing stage has finished the lane
	// (reclaim).
	bufs  [][]trace.DynInst
	taken int
	_     [40]byte // a slot per two cache lines
}

// wrongPath is the wrong path of the lane's record j, with the
// convergence the policy found for it (for the observability hook).
type wrongPath struct {
	j         int
	recs      []trace.DynInst
	converged bool
	convDist  uint64
}

// pipe is the lane ring between the two stages. Its groups sit on
// cache lines of their own: the sizes and channels, fixed for a run;
// the stream stage's bookkeeping and pub, which only it writes; done,
// which only the timing stage writes; and the parking flags.
type pipe struct {
	lanes []lane
	lag   uint64 // lanes a waiting stage lets pass before it is woken
	poll  int    // polls between yields of a waiting stage
	spin  int    // polls before it parks

	streamWake chan struct{} // token for a parked stream stage
	timingWake chan struct{} // token for a parked timing stage
	exited     chan struct{} // one token when the stream goroutine returns
	_          [64]byte

	// The stream stage's bookkeeping: lanes published and reclaimed,
	// wrong paths held by unreclaimed lanes (at most budget while an
	// earlier lane can be waited for), and the pool of path buffers.
	n, reclaimed uint64
	paths        int
	bufs         [][]trace.DynInst
	spare        []trace.DynInst

	// pub is the number of lanes published, shifted left by one, plus 1
	// once the stream ended; fault is a stream-stage panic, published
	// with the end.
	pub   atomic.Uint64
	fault *simerr.Fault
	_     [64]byte

	// done is the number of lanes the timing stage finished, lane hook
	// included; stop asks the stream stage to return.
	done atomic.Uint64
	stop atomic.Bool
	_    [64]byte

	// A parked stage sets its flag and the progress it waits for.
	streamParked, timingParked atomic.Bool
	streamWant, timingWant     atomic.Uint64
	_                          [64]byte
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
	p.streamWake = make(chan struct{}, 1)
	p.timingWake = make(chan struct{}, 1)
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

// publish makes lanes below n readable, marks the end of the stream
// when end is set, and wakes a parked timing stage once lag lanes
// wait for it, at the end, or at a hold (urgent).
func (p *pipe) publish(n uint64, end, urgent bool) {
	v := n << 1
	if end {
		v |= 1
	}
	p.pub.Store(v)
	if p.timingParked.Load() && (end || urgent || n >= p.timingWant.Load()) && p.timingParked.CompareAndSwap(true, false) {
		p.timingWake <- struct{}{}
	}
}

// nudge wakes a parked timing stage at once: the stream stage is about
// to wait for lanes already published.
func (p *pipe) nudge() {
	if p.timingParked.Load() && p.timingParked.CompareAndSwap(true, false) {
		p.timingWake <- struct{}{}
	}
}

// finish records that the timing stage finished lane d-1 and wakes a
// parked stream stage waiting for it.
func (p *pipe) finish(d uint64) {
	p.done.Store(d)
	if p.streamParked.Load() && d >= p.streamWant.Load() && p.streamParked.CompareAndSwap(true, false) {
		p.streamWake <- struct{}{}
	}
}

// awaitDone blocks the stream stage until the timing stage has finished
// want lanes; false means the timing stage asked it to stop. want is
// stored before the second look at done, and the timing stage stores
// done before it looks at the parked flag, so one of them sees the
// other.
func (p *pipe) awaitDone(want uint64) bool {
	for i := 0; i < p.spin; i++ {
		if p.stop.Load() {
			return false
		}
		if p.done.Load() >= want {
			return true
		}
		if i%p.poll == p.poll-1 {
			runtime.Gosched()
		}
	}
	for {
		p.streamWant.Store(want)
		p.streamParked.Store(true)
		if p.done.Load() >= want || p.stop.Load() {
			if p.streamParked.CompareAndSwap(true, false) {
				return !p.stop.Load()
			}
			// A waker claimed the park first; its token is on the way.
		}
		<-p.streamWake
		if p.stop.Load() {
			return false
		}
		if p.done.Load() >= want {
			return true
		}
	}
}

// awaitLane blocks the timing stage until lane d is published or the
// stream ended, and returns the published progress. A parked timing
// stage asks to be woken lag lanes later, but any lane already
// published when it parks ends the wait.
func (p *pipe) awaitLane(d uint64) uint64 {
	ready := func(v uint64) bool { return v&1 != 0 || v>>1 > d }
	for i := 0; i < p.spin; i++ {
		if v := p.pub.Load(); ready(v) {
			return v
		}
		if i%p.poll == p.poll-1 {
			runtime.Gosched()
		}
	}
	for {
		p.timingWant.Store(d + p.lag)
		p.timingParked.Store(true)
		if v := p.pub.Load(); ready(v) {
			if p.timingParked.CompareAndSwap(true, false) {
				return v
			}
		}
		<-p.timingWake
		if v := p.pub.Load(); ready(v) {
			return v
		}
	}
}

// next returns lane d for the timing stage, or nil once the stream has
// ended before it; a stream-stage panic is re-raised here, on the
// caller's goroutine.
func (p *pipe) next(d uint64) *lane {
	v := p.pub.Load()
	if v>>1 <= d && v&1 == 0 {
		v = p.awaitLane(d)
	}
	if v>>1 > d {
		return &p.lanes[d%p.depth()]
	}
	if p.fault != nil {
		panic(p.fault) //wplint:allow-panic -- the stream stage's panic, re-raised on the caller's goroutine so the run's recover contains it
	}
	return nil
}

// startStream launches the stream stage for a measured phase that
// begins at the core's retired count and ends at maxInsts (0: no cap).
func (c *Core) startStream(maxInsts uint64) {
	c.streamInsts, c.streamMax = c.stats.Instructions, maxInsts
	go c.streamFn()
}

// joinStream stops the stream stage, waits for its goroutine to return
// and resets the ring: every lane's paths go back, so between runs the
// frontend holds no taken path. It runs on every exit of the measured
// phase, a timing-stage panic included.
func (c *Core) joinStream() {
	p := &c.pipe
	p.stop.Store(true)
	if p.streamParked.Load() && p.streamParked.CompareAndSwap(true, false) {
		p.streamWake <- struct{}{}
	}
	<-p.exited
	for i := range p.lanes {
		c.reclaim(&p.lanes[i])
	}
	p.n, p.reclaimed = 0, 0
	p.pub.Store(0)
	p.done.Store(0)
	p.stop.Store(false)
	p.fault = nil
}

// stream is the stream stage's goroutine. It pops lanes until the
// stream ends, the instruction cap is reached, an Exit record is popped
// or the timing stage stops it, and publishes each. A panic is
// recovered here and published as the end of the stream, for the
// timing stage to re-raise.
func (c *Core) stream() {
	p := &c.pipe
	defer func() {
		if r := recover(); r != nil {
			p.fault = simerr.WorkerPanic("stream stage", r, debug.Stack())
			p.publish(p.n, true, true)
		}
		p.exited <- struct{}{}
	}()
	insts, max := c.streamInsts, c.streamMax
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
		if max > 0 {
			if insts >= max {
				p.publish(p.n, true, true)
				return
			}
			if rem := max - insts; rem < uint64(len(dst)) {
				dst = dst[:rem]
			}
		}
		k := c.q.PopBatch(dst)
		if k == 0 {
			p.publish(p.n, true, true)
			return
		}
		c.streamLane(ln, k)
		insts += uint64(k)
		exit := ln.recs[k-1].Exit
		hold := !exit && c.holdAt != nil && c.holdAt(insts)
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
	for d := p.done.Load(); p.reclaimed < d; p.reclaimed++ {
		c.reclaim(&p.lanes[p.reclaimed%p.depth()])
	}
}

// reserve makes room for one more wrong path: while the budget is spent
// and published lanes are still in flight, it waits for the timing stage
// to finish some of them. A lane that alone holds the budget goes over
// it, since no earlier lane is left to wait for.
func (c *Core) reserve() {
	p := &c.pipe
	for {
		c.reclaimFinished()
		if p.paths < p.budget() || p.reclaimed == p.n {
			return
		}
		p.nudge()
		if !p.awaitDone(min(p.reclaimed+p.lag, p.n)) {
			return // stopping: the lane is never published
		}
	}
}

// streamLane runs the stream stage's work on the lane's first k records:
// the code cache's seen set, branch prediction, and at each mispredict
// the emulated path's take and the policy's wrong path.
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
		if pred.Mispredicted {
			ln.wps = append(ln.wps, c.wrongPathOf(ln, j, di, pred.Target))
		}
	}
	c.laneN, c.lanePos = 0, 0
}

// wrongPathOf takes the emulated path of the mispredicted record j and
// asks the policy for its wrong path. A built-in policy writes the path
// into Context.Buf, a path buffer the lane then keeps; a wpemul path
// stays in the frontend's ring until the lane is reclaimed; any other
// slice a policy returns is copied into a path buffer, since the policy
// may reuse it at its next Begin while the timing stage still reads it.
func (c *Core) wrongPathOf(ln *lane, j int, br *trace.DynInst, target uint64) wrongPath {
	p := &c.pipe
	c.reserve()
	if c.wrongPaths != nil {
		c.ctx.Emulated = c.wrongPaths(br.Seq)
		ln.taken++
		p.paths++
	}
	var prevDet, prevDist uint64
	if c.obs != nil {
		st := c.policy.Stats()
		prevDet, prevDist = st.ConvDetected, st.ConvDistSum
	}
	if p.spare == nil {
		if k := len(p.bufs); k > 0 {
			p.spare, p.bufs = p.bufs[k-1], p.bufs[:k-1]
		} else {
			p.spare = make([]trace.DynInst, 0, c.ctx.MaxLen)
		}
	}
	c.ctx.Buf = p.spare[:0]
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

// keep hands the spare path buffer, now holding buf, to the lane.
func (c *Core) keep(ln *lane, buf []trace.DynInst) {
	ln.bufs = append(ln.bufs, buf)
	c.pipe.spare = nil
	c.pipe.paths++
}

// reclaim empties a lane the timing stage has finished with: its path
// buffers return to the pool and its emulated paths to the frontend.
func (c *Core) reclaim(ln *lane) {
	p := &c.pipe
	p.paths -= len(ln.bufs) + ln.taken
	p.bufs = append(p.bufs, ln.bufs...)
	clear(ln.bufs)
	ln.bufs, ln.wps = ln.bufs[:0], ln.wps[:0]
	if ln.taken > 0 {
		c.releasePaths(ln.taken)
		ln.taken = 0
	}
	ln.n = 0
}
