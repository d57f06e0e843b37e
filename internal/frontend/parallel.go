package frontend

import (
	"context"
	"runtime/debug"
	"sync"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// Parallel runs a producer (typically a *Frontend) in its own
// goroutine, handing instruction batches to the consumer through a
// buffered channel. This realizes the decoupling benefit the paper
// attributes to functional-first simulation: "the decoupling of the
// functional and performance simulator enables them to run in
// parallel", unlike integrated simulation's de-facto sequential
// emulate-then-time loop.
//
// The produced instruction sequence — and therefore every simulation
// statistic — is bit-identical to the synchronous mode; only host
// wall-clock time changes.
//
// Fault containment: a panic inside the wrapped producer is recovered
// in the goroutine, surfaced as a typed simerr.ErrWorkerPanic fault via
// Err, and the stream ends cleanly — the consumer's process never
// crashes. Close is idempotent and safe after a producer panic.
type Parallel struct {
	src      interface{ Next() (trace.DynInst, bool) }
	ch       chan []trace.DynInst
	stop     chan struct{}
	done     <-chan struct{} // run context's Done; nil = never fires
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu  sync.Mutex
	err error

	cur []trace.DynInst
	idx int
	eof bool
}

// DefaultBatch is the default producer batch size: large enough to
// amortize channel synchronization, small enough to keep the
// performance simulator from stalling at start-up.
const DefaultBatch = 256

// DefaultDepth is the default channel depth in batches. Depth × batch
// bounds the functional simulator's run-ahead, playing the role of the
// paper's "tens up to thousands" of queued instructions.
const DefaultDepth = 16

// NewParallel starts the producer goroutine. Close must be called when
// the consumer is done (sim.Run does this), otherwise the goroutine
// leaks blocked on a full channel. NewParallelContext removes that
// footgun for cancellable runs.
func NewParallel(src interface {
	Next() (trace.DynInst, bool)
}, batch, depth int) *Parallel {
	return NewParallelContext(context.Background(), src, batch, depth)
}

// NewParallelContext is NewParallel bound to a run context: every
// channel wait — producer sends and consumer receives alike — also
// selects on ctx.Done, so a consumer that stops without calling Close
// (a panic unwinding past the simulation loop, a canceled sweep cell)
// cannot strand the producer goroutine blocked on a full channel.
// Close is still required for a prompt, waited teardown; the context is
// the backstop that turns a missed Close from a permanent goroutine
// leak into an eventual exit. A nil ctx behaves like
// context.Background (no backstop).
func NewParallelContext(ctx context.Context, src interface {
	Next() (trace.DynInst, bool)
}, batch, depth int) *Parallel {
	if batch <= 0 {
		batch = DefaultBatch
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	p := &Parallel{
		src:  src,
		ch:   make(chan []trace.DynInst, depth),
		stop: make(chan struct{}),
	}
	if ctx != nil {
		p.done = ctx.Done()
	}
	p.wg.Add(1)
	go func() {
		// Deferred in reverse order: the recover runs first (capturing a
		// producer panic and recording the fault), then the channel close
		// publishes end-of-stream — the close happens-after the fault is
		// stored, so a consumer that saw EOF reads a settled Err.
		defer p.wg.Done()
		defer close(p.ch)
		defer func() {
			if rec := recover(); rec != nil {
				p.setErr(simerr.WorkerPanic("parallel frontend producer", rec, debug.Stack()))
			}
		}()
		if bs, ok := src.(interface {
			NextBatch([]trace.DynInst) int
		}); ok {
			// Batched fill: one producer call per channel batch instead of
			// one per record. 0 written means end of stream.
			for {
				buf := make([]trace.DynInst, batch)
				n := bs.NextBatch(buf)
				if n == 0 {
					return
				}
				select {
				case p.ch <- buf[:n]:
				case <-p.stop:
					return
				case <-p.done:
					return
				}
			}
		}
		buf := make([]trace.DynInst, 0, batch)
		for {
			di, ok := src.Next()
			if ok {
				buf = append(buf, di)
			}
			if len(buf) == batch || (!ok && len(buf) > 0) {
				select {
				case p.ch <- buf:
					buf = make([]trace.DynInst, 0, batch)
				case <-p.stop:
					return
				case <-p.done:
					return
				}
			}
			if !ok {
				return
			}
		}
	}()
	return p
}

func (p *Parallel) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

// Err reports a fault that ended the stream early — currently only a
// recovered producer panic (errors.Is(err, simerr.ErrWorkerPanic)).
// It is meaningful once Next has reported end-of-stream or Close has
// returned.
func (p *Parallel) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Next implements queue.Producer from the consumer side. It also
// returns end-of-stream when the run context is done, so a canceled
// consumer never stays blocked on the producer.
func (p *Parallel) Next() (trace.DynInst, bool) {
	for p.idx >= len(p.cur) {
		if p.eof {
			return trace.DynInst{}, false
		}
		select {
		case batch, ok := <-p.ch:
			if !ok {
				p.eof = true
				return trace.DynInst{}, false
			}
			p.cur, p.idx = batch, 0
		case <-p.done:
			p.eof = true
			return trace.DynInst{}, false
		}
	}
	di := p.cur[p.idx]
	p.idx++
	return di, true
}

// NextBatch implements queue.BatchProducer from the consumer side: it
// fills dst from the current channel batch, blocking for the next one
// while dst has room, and returns short only at end-of-stream — the
// same record sequence (and blocking behavior) as a Next loop.
func (p *Parallel) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) {
		for p.idx >= len(p.cur) {
			if p.eof {
				return n
			}
			select {
			case batch, ok := <-p.ch:
				if !ok {
					p.eof = true
					return n
				}
				p.cur, p.idx = batch, 0
			case <-p.done:
				p.eof = true
				return n
			}
		}
		k := copy(dst[n:], p.cur[p.idx:])
		p.idx += k
		n += k
	}
	return n
}

// Close stops the producer goroutine and waits for it to exit. It is
// idempotent and safe to call after the producer has already finished
// or panicked (the recovered panic is reported by Err, and the drain
// below cannot hang because the producer's goroutine has exited).
// The producer's next send aborts; a producer goroutine blocked
// *inside* src.Next would make the wg.Wait below hang.
func (p *Parallel) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	// Drain so a producer blocked on send can observe stop/finish. After
	// the goroutine exits the channel is closed, so ranging terminates —
	// including on a second Close.
	for range p.ch {
	}
	p.wg.Wait()
	p.cur, p.idx = nil, 0
	p.eof = true
}
