package queue

import (
	"errors"
	"testing"
	"time"

	"repro/internal/simerr"
	"repro/internal/trace"
)

// countingProducer emits Seq-numbered records, burning work rounds of
// arithmetic per record (0 = as fast as the copy), and counts the
// records handed out.
type countingProducer struct {
	total, next uint64
	work        int
	sink        uint64
}

func (p *countingProducer) Next() (trace.DynInst, bool) {
	var d [1]trace.DynInst
	if p.NextBatch(d[:]) == 0 {
		return trace.DynInst{}, false
	}
	return d[0], true
}

func (p *countingProducer) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) && p.next < p.total {
		x := p.next
		for i := 0; i < p.work; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		p.sink += x
		dst[n] = trace.DynInst{Seq: p.next, PC: 0x1000 + 4*p.next}
		p.next++
		n++
	}
	return n
}

// step is one consumer action of the feed stress script.
type step struct {
	pop   int // PopBatch lane size; 0 for a window walk
	peek  int // window walk depth
	chunk int // window size the walk asks for
}

// feedScript derives a deterministic consumer script: lanes of random
// size (lane 1 and lanes past the lookahead included) interleaved with
// window walks up to depth, in windows of random size.
func feedScript(seed uint64, lookahead, depth, n int) []step {
	x := seed
	rnd := func(k int) int {
		x = x*6364136223846793005 + 1442695040888963407
		return int((x >> 33) % uint64(k))
	}
	lanes := []int{1, 3, 16, lookahead + 5}
	var out []step
	for len(out) < n {
		if rnd(3) == 0 {
			out = append(out, step{peek: rnd(depth), chunk: 1 + rnd(40)})
		} else {
			out = append(out, step{pop: lanes[rnd(len(lanes))]})
		}
	}
	return out
}

// TestFeedMatchesInline is the race stress of the concurrent fill:
// against a fast and a slow producer, a started queue and an inline
// one run the same script of PopBatch lanes and PeekWindow walks, and
// settle the started one after every action. Every popped record,
// every window record, every batch length and the producer's position
// after each settle must match the inline queue's; a walk shallower
// than the lookahead leaves the target where the last pop put it, so a
// settle right after a pop finds exactly popped + lookahead − 1
// records written. Run it with -race -count=10 (make chaos).
func TestFeedMatchesInline(t *testing.T) {
	const lookahead = 40
	for _, work := range []int{0, 400} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, depth := range []int{lookahead - 1, 2 * lookahead} {
				ref := &countingProducer{total: 6000, work: work}
				got := &countingProducer{total: 6000, work: work}
				qr := mustNew(t, ref, lookahead)
				qg := mustNew(t, got, lookahead)
				qg.Start()
				dr := make([]trace.DynInst, lookahead+5)
				dg := make([]trace.DynInst, lookahead+5)
				for si, s := range feedScript(seed, lookahead, depth, 2000) {
					if s.pop > 0 {
						nr, ng := qr.PopBatch(dr[:s.pop]), qg.PopBatch(dg[:s.pop])
						if nr != ng {
							t.Fatalf("work %d seed %d step %d: PopBatch(%d) = %d, inline %d", work, seed, si, s.pop, ng, nr)
						}
						for j := 0; j < nr; j++ {
							if dg[j] != dr[j] {
								t.Fatalf("work %d seed %d step %d: record %d = Seq %d, inline Seq %d", work, seed, si, j, dg[j].Seq, dr[j].Seq)
							}
						}
					} else {
						for i := 0; i <= s.peek; {
							wr := qr.PeekWindow(i, s.chunk)
							wg := qg.PeekWindow(i, s.chunk)
							if len(wg) > len(wr) || (len(wg) == 0) != (len(wr) == 0) {
								t.Fatalf("work %d seed %d step %d: window at %d has %d records, inline %d", work, seed, si, i, len(wg), len(wr))
							}
							if len(wg) == 0 {
								break
							}
							for j := range wg {
								if wg[j] != wr[j] {
									t.Fatalf("work %d seed %d step %d: window record %d differs", work, seed, si, i+j)
								}
							}
							i += len(wg)
						}
					}
					qg.Settle()
					if got.next != ref.next || qg.n != qr.n || qg.done != qr.done {
						t.Fatalf("work %d seed %d step %d: settled producer at %d (%d buffered, done %v), inline %d (%d, %v)",
							work, seed, si, got.next, qg.n, qg.done, ref.next, qr.n, qr.done)
					}
					if s.pop > 0 && depth < lookahead && !qg.done && got.next != qg.popped+lookahead-1 {
						t.Fatalf("work %d seed %d step %d: settled after a pop at %d written, want popped %d + lookahead − 1", work, seed, si, got.next, qg.popped)
					}
				}
				qg.Stop()
			}
		}
	}
}

// TestFeedEndsByItself: a producer whose stream ends mid-run publishes
// the end and returns from its goroutine on its own, with no Stop.
func TestFeedEndsByItself(t *testing.T) {
	p := &countingProducer{total: 100}
	q := mustNew(t, p, 1000)
	q.Start()
	f := q.feed
	dst := make([]trace.DynInst, 64)
	if n := q.PopBatch(dst); n != 64 {
		t.Fatalf("first lane = %d records, want 64", n)
	}
	select {
	case <-f.exited:
	case <-time.After(10 * time.Second):
		t.Fatal("the producer goroutine outlived the end of its stream")
	}
	total := 64
	for n := q.PopBatch(dst); n > 0; n = q.PopBatch(dst) {
		total += n
	}
	if total != 100 || !q.done {
		t.Fatalf("drained %d records (done %v), want 100", total, q.done)
	}
	q.Stop()
}

// panicProducer panics once it has handed out after records.
type panicProducer struct{ countingProducer }

func (p *panicProducer) NextBatch(dst []trace.DynInst) int {
	if p.next >= p.total {
		panic("injected producer fault")
	}
	return p.countingProducer.NextBatch(dst[:min(len(dst), int(p.total-p.next))])
}

// TestFeedPanicReraised: a panic on the producer goroutine reaches the
// consumer as a typed worker-panic fault, raised from the first queue
// call that waits on the producer after it, and the goroutine is gone.
func TestFeedPanicReraised(t *testing.T) {
	q := mustNew(t, &panicProducer{countingProducer{total: 200}}, 64)
	q.Start()
	f := q.feed
	var rec any
	func() {
		defer func() { rec = recover() }()
		dst := make([]trace.DynInst, 16)
		for q.PopBatch(dst) > 0 {
		}
	}()
	fault, ok := rec.(*simerr.Fault)
	if !ok || !errors.Is(fault, simerr.ErrWorkerPanic) {
		t.Fatalf("recovered %v, want a worker-panic fault", rec)
	}
	if q.popped > 200 {
		t.Errorf("consumed %d records before the fault, but only 200 were written", q.popped)
	}
	select {
	case <-f.exited:
	case <-time.After(10 * time.Second):
		t.Error("the producer goroutine outlived its panic")
	}
	q.Stop()
}

// TestFeedStop: Stop ends the producer wherever it is — parked after a
// settle, or busy writing behind a slow source — and the queue then
// fills inline from where it stopped, missing no record.
func TestFeedStop(t *testing.T) {
	for _, work := range []int{0, 5000} {
		q := mustNew(t, &countingProducer{total: 5000, work: work}, 64)
		dst := make([]trace.DynInst, 32)
		next := uint64(0)
		for round := 0; round < 20; round++ {
			q.Start()
			if round%2 == 0 {
				q.Settle()
			}
			n := q.PopBatch(dst)
			q.Stop()
			for _, d := range dst[:n] {
				if d.Seq != next {
					t.Fatalf("work %d round %d: Seq %d, want %d", work, round, d.Seq, next)
				}
				next++
			}
		}
		for n := q.PopBatch(dst); n > 0; n = q.PopBatch(dst) {
			for _, d := range dst[:n] {
				if d.Seq != next {
					t.Fatalf("work %d inline tail: Seq %d, want %d", work, d.Seq, next)
				}
				next++
			}
		}
		if next != 5000 {
			t.Fatalf("work %d: %d records, want 5000", work, next)
		}
	}
}
