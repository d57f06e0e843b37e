package queue

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
	"repro/internal/simerr"
	"repro/internal/trace"
)

// Pop removes and returns the next instruction; ok is false when the
// program has ended. Pop and Peek are the per-record reference that
// PopBatch and PeekWindow are checked against.
func (q *Queue) Pop() (trace.DynInst, bool) {
	q.fill(q.lookahead)
	if q.n == 0 {
		return trace.DynInst{}, false
	}
	di := q.buf[q.head]
	q.buf[q.head] = trace.DynInst{} // release any attached WP stream
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return di, true
}

// Peek returns the i-th instruction ahead (0 = the one the next Pop
// returns) without consuming it, refilling from the producer as needed.
// ok is false when fewer than i+1 instructions remain in the program,
// or when i is at or past the ring's capacity.
func (q *Queue) Peek(i int) (trace.DynInst, bool) {
	if i >= len(q.buf) {
		return trace.DynInst{}, false
	}
	if i >= q.n {
		q.fill(i + 1)
		if i >= q.n {
			return trace.DynInst{}, false
		}
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)], true
}

// sliceProducer yields a fixed sequence.
type sliceProducer struct {
	seq []trace.DynInst
	i   int
	// calls counts Next invocations (to observe laziness).
	calls int
}

func (p *sliceProducer) Next() (trace.DynInst, bool) {
	p.calls++
	if p.i >= len(p.seq) {
		return trace.DynInst{}, false
	}
	d := p.seq[p.i]
	p.i++
	return d, true
}

func mkSeq(n int) []trace.DynInst {
	out := make([]trace.DynInst, n)
	for i := range out {
		out[i] = trace.DynInst{Seq: uint64(i), PC: uint64(0x1000 + 4*i)}
	}
	return out
}

func mustNew(t *testing.T, src Producer, lookahead int) *Queue {
	t.Helper()
	q, err := New(src, lookahead)
	if err != nil {
		t.Fatalf("New(lookahead=%d): %v", lookahead, err)
	}
	return q
}

func TestPopOrder(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(100)}, 8)
	for i := 0; i < 100; i++ {
		d, ok := q.Pop()
		if !ok || d.Seq != uint64(i) {
			t.Fatalf("pop %d = %+v, %v", i, d, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("pop past end succeeded")
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(50)}, 16)
	for i := 0; i < 10; i++ {
		d, ok := q.Peek(i)
		if !ok || d.Seq != uint64(i) {
			t.Fatalf("peek %d = %+v, %v", i, d, ok)
		}
	}
	// Still pops from the beginning.
	if d, _ := q.Pop(); d.Seq != 0 {
		t.Error("peek consumed instructions")
	}
	// Peek indices shift after a pop.
	if d, _ := q.Peek(0); d.Seq != 1 {
		t.Error("peek after pop wrong")
	}
}

func TestPeekBeyondEnd(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(5)}, 16)
	if _, ok := q.Peek(4); !ok {
		t.Error("peek at last failed")
	}
	if _, ok := q.Peek(5); ok {
		t.Error("peek past end succeeded")
	}
	// All five still poppable.
	for i := 0; i < 5; i++ {
		if _, ok := q.Pop(); !ok {
			t.Fatalf("pop %d failed", i)
		}
	}
}

// TestPeekClipAtCeiling: the ring's last slot answers, and a Peek at
// or past the capacity comes back empty while the producer still has
// records, pulling nothing and leaving the ring as it was.
func TestPeekClipAtCeiling(t *testing.T) {
	p := &sliceProducer{seq: mkSeq(64)}
	q := mustNew(t, p, 8) // capacity 16
	capacity := len(q.buf)
	if d, ok := q.Peek(capacity - 1); !ok || d.Seq != uint64(capacity-1) {
		t.Fatalf("Peek(%d), the last slot, = %+v, %v", capacity-1, d, ok)
	}
	pulled := p.i
	for _, i := range []int{capacity, capacity + 1, 10 * capacity} {
		if _, ok := q.Peek(i); ok {
			t.Errorf("Peek(%d) at or past the capacity succeeded", i)
		}
	}
	if p.i != pulled || len(q.buf) != capacity {
		t.Errorf("refused peeks pulled %d records and left capacity %d, want 0 and %d",
			p.i-pulled, len(q.buf), capacity)
	}
	for i := 0; i < 64; i++ {
		if d, ok := q.Pop(); !ok || d.Seq != uint64(i) {
			t.Fatalf("pop %d after a full ring = %+v, %v", i, d, ok)
		}
	}
}

// TestNewLookaheadClamp: an absurd lookahead is a typed, deterministic
// configuration fault — not an allocation crash or an infinite sizing
// loop.
func TestNewLookaheadClamp(t *testing.T) {
	if _, err := New(&sliceProducer{}, MaxLookahead); err != nil {
		t.Errorf("New at MaxLookahead rejected: %v", err)
	}
	_, err := New(&sliceProducer{}, MaxLookahead+1)
	if err == nil {
		t.Fatal("New beyond MaxLookahead succeeded")
	}
	if !errors.Is(err, simerr.ErrConfig) {
		t.Errorf("err = %v, want simerr.ErrConfig", err)
	}
	var f *simerr.Fault
	if !errors.As(err, &f) {
		t.Errorf("err is not a *simerr.Fault: %T", err)
	}
}

func TestLookaheadMaintained(t *testing.T) {
	p := &sliceProducer{seq: mkSeq(100)}
	q := mustNew(t, p, 10)
	q.Pop()
	// The queue refills to the lookahead target before each pop, so at
	// least lookahead-1 instructions remain buffered afterwards.
	if q.n < 9 {
		t.Errorf("lookahead after pop = %d, want >= 9", q.n)
	}
	// The producer has been drawn on beyond the consumed instruction
	// (run-ahead), but not exhaustively.
	if p.i < 10 || p.i == len(p.seq) {
		t.Errorf("producer position = %d", p.i)
	}
}

func TestLookaheadFloor(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(10)}, 0)
	if q.lookahead != 1 {
		t.Errorf("lookahead = %d, want 1", q.lookahead)
	}
	if _, ok := q.Pop(); !ok {
		t.Error("pop failed")
	}
}

// TestPeekAcrossWrapAround drives head around the ring several times and
// verifies the full peek window stays coherent at every position.
func TestPeekAcrossWrapAround(t *testing.T) {
	const la = 8
	q := mustNew(t, &sliceProducer{seq: mkSeq(300)}, la) // capacity 16 < 300: head must wrap
	for popped := 0; popped < 280; popped++ {
		// The peek window ahead of the consumer always reports the
		// upcoming sequence numbers, regardless of where head sits.
		for i := 0; i < la; i++ {
			d, ok := q.Peek(i)
			if !ok || d.Seq != uint64(popped+i) {
				t.Fatalf("after %d pops, Peek(%d) = %+v, %v; want Seq %d",
					popped, i, d, ok, popped+i)
			}
		}
		if d, ok := q.Pop(); !ok || d.Seq != uint64(popped) {
			t.Fatalf("pop %d = %+v, %v", popped, d, ok)
		}
	}
}

// TestPeekPastTailNearEnd exercises the program-end boundary: as the
// producer drains, Peek(i) reports exactly how many instructions remain
// (the paper's "skip the convergence check" case) and never invents
// entries past the tail.
func TestPeekPastTailNearEnd(t *testing.T) {
	const n = 12
	q := mustNew(t, &sliceProducer{seq: mkSeq(n)}, 16) // capacity 32 ≥ n: false means end, not ring limit
	for popped := 0; popped < n; popped++ {
		remaining := n - popped
		for i := 0; i < remaining; i++ {
			if d, ok := q.Peek(i); !ok || d.Seq != uint64(popped+i) {
				t.Fatalf("after %d pops, Peek(%d) = %+v, %v", popped, i, d, ok)
			}
		}
		// One past the tail (and far past it) must report false without
		// disturbing the queue.
		if _, ok := q.Peek(remaining); ok {
			t.Fatalf("after %d pops, Peek(%d) past tail succeeded", popped, remaining)
		}
		if _, ok := q.Peek(remaining + 7); ok {
			t.Fatalf("after %d pops, Peek(%d) far past tail succeeded", popped, remaining+7)
		}
		if d, ok := q.Pop(); !ok || d.Seq != uint64(popped) {
			t.Fatalf("pop %d after boundary peeks = %+v, %v", popped, d, ok)
		}
	}
	if _, ok := q.Peek(0); ok {
		t.Error("Peek(0) on a drained queue succeeded")
	}
}

// TestPeekAfterSquashBurst models the consumer-side pattern after a
// pipeline squash: the core discards its in-flight wrong-path work and
// drains a burst of correct-path instructions from the queue, then peeks
// ahead again for the next convergence check. The run-ahead window must
// pick up exactly where the burst left off.
func TestPeekAfterSquashBurst(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(500)}, 16)
	next := uint64(0)
	bursts := []int{1, 31, 2, 17, 64, 5, 33} // crosses the ring boundary repeatedly
	for _, burst := range bursts {
		// Pre-burst peek, as the convergence check does.
		if d, ok := q.Peek(0); !ok || d.Seq != next {
			t.Fatalf("Peek(0) before burst = %+v, %v; want Seq %d", d, ok, next)
		}
		for k := 0; k < burst; k++ {
			d, ok := q.Pop()
			if !ok || d.Seq != next {
				t.Fatalf("burst pop = %+v, %v; want Seq %d", d, ok, next)
			}
			next++
		}
		// Post-burst window: contiguous continuation, no duplicates and
		// no skips.
		for i := 0; i < 16; i++ {
			if d, ok := q.Peek(i); !ok || d.Seq != next+uint64(i) {
				t.Fatalf("Peek(%d) after burst of %d = %+v, %v; want Seq %d",
					i, burst, d, ok, next+uint64(i))
			}
		}
	}
}

// TestQuickPeekPopAgreement: whatever Peek(i) returned is exactly what
// the (i+1)-th subsequent Pop returns.
func TestQuickPeekPopAgreement(t *testing.T) {
	f := func(n0, la0, i0 uint8) bool {
		n := int(n0)%200 + 20
		la := int(la0)%32 + 1
		q := mustNew(t, &sliceProducer{seq: mkSeq(n)}, la)
		i := int(i0) % len(q.buf)
		want, ok := q.Peek(i)
		if !ok {
			return true
		}
		var got trace.DynInst
		for k := 0; k <= i; k++ {
			got, _ = q.Pop()
		}
		return got.Seq == want.Seq && got.PC == want.PC
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// sliceBatchProducer is sliceProducer plus the batched refill
// capability, with both call counts observable.
type sliceBatchProducer struct {
	sliceProducer
	batchCalls int
}

func (p *sliceBatchProducer) NextBatch(dst []trace.DynInst) int {
	p.batchCalls++
	n := copy(dst, p.seq[p.i:])
	p.i += n
	return n
}

func TestPopBatchOrder(t *testing.T) {
	for _, batched := range []bool{false, true} {
		var src Producer = &sliceProducer{seq: mkSeq(100)}
		if batched {
			src = &sliceBatchProducer{sliceProducer: sliceProducer{seq: mkSeq(100)}}
		}
		q := mustNew(t, src, 8)
		dst := make([]trace.DynInst, 7)
		next := uint64(0)
		for {
			n := q.PopBatch(dst)
			if n == 0 {
				break
			}
			for _, d := range dst[:n] {
				if d.Seq != next {
					t.Fatalf("batched=%v: got Seq %d, want %d", batched, d.Seq, next)
				}
				next++
			}
		}
		if next != 100 {
			t.Fatalf("batched=%v: consumed %d records, want 100", batched, next)
		}
	}
}

// TestPopBatchExitStop: a batch stops after (and includes) an Exit
// record; records queued beyond the exit stay buffered, exactly what a
// per-instruction consumer would leave behind.
func TestPopBatchExitStop(t *testing.T) {
	seq := mkSeq(20)
	seq[5].Exit = true
	q := mustNew(t, &sliceProducer{seq: seq}, 16)
	dst := make([]trace.DynInst, 12)
	n := q.PopBatch(dst)
	if n != 6 {
		t.Fatalf("PopBatch across an Exit = %d records, want 6", n)
	}
	if !dst[5].Exit {
		t.Error("batch does not end with the Exit record")
	}
	for i, d := range dst[:n] {
		if d.Seq != uint64(i) {
			t.Errorf("record %d: Seq = %d", i, d.Seq)
		}
	}
	// The tail of the program is still there.
	if d, ok := q.Pop(); !ok || d.Seq != 6 {
		t.Errorf("pop after Exit-stopped batch = %+v, %v; want Seq 6", d, ok)
	}
}

// TestPopBatchPullParity: PopBatch(m) leaves the producer at exactly
// the position m successive Pops would — the invariant that keeps
// FunctionalInsts (and thus every downstream statistic) bit-identical
// between batch sizes.
func TestPopBatchPullParity(t *testing.T) {
	const total, la = 300, 16
	for _, m := range []int{1, 2, 7, 16, 17, 64} {
		pa := &sliceProducer{seq: mkSeq(total)}
		pb := &sliceProducer{seq: mkSeq(total)}
		qa := mustNew(t, pa, la)
		qb := mustNew(t, pb, la)
		dst := make([]trace.DynInst, m)
		poppedA, poppedB := 0, 0
		for step := 0; ; step++ {
			// A batch may come up short of m (at most a lookahead's worth is
			// buffered per call); parity holds per record consumed, so drive
			// the reference queue by exactly the n records the batch popped.
			n := qa.PopBatch(dst)
			poppedA += n
			for k := 0; k < n; k++ {
				if _, ok := qb.Pop(); !ok {
					t.Fatalf("m=%d step %d: reference Pop %d/%d failed", m, step, k, n)
				}
				poppedB++
			}
			if n == 0 {
				if _, ok := qb.Pop(); ok {
					t.Fatalf("m=%d step %d: batch ended but reference still pops", m, step)
				}
			}
			if pa.i != pb.i {
				t.Fatalf("m=%d step %d: producer positions diverge: batch %d, per-inst %d", m, step, pa.i, pb.i)
			}
			if qa.n != qb.n {
				t.Fatalf("m=%d step %d: queue depths diverge: batch %d, per-inst %d", m, step, qa.n, qb.n)
			}
			if n == 0 {
				break
			}
		}
		if poppedA != poppedB || poppedA != total {
			t.Errorf("m=%d: popped %d vs %d, want %d", m, poppedA, poppedB, total)
		}
	}
}

// TestPeekWindowMatchesPeek: walking windows at every start index
// yields exactly the records Peek reports, one wrap-bounded segment at
// a time.
func TestPeekWindowMatchesPeek(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(120)}, 32)
	for popped := 0; popped+32 < 120; popped++ {
		// Windowed walk over the next 32 records.
		i := 0
		for i < 32 {
			w := q.PeekWindow(i, 32-i)
			if len(w) == 0 {
				t.Fatalf("after %d pops, empty window at %d", popped, i)
			}
			for j, d := range w {
				want, ok := q.Peek(i + j)
				if !ok || d.Seq != want.Seq {
					t.Fatalf("after %d pops, window[%d+%d] Seq %d != Peek %d (ok=%v)",
						popped, i, j, d.Seq, want.Seq, ok)
				}
			}
			i += len(w)
		}
		q.Pop()
	}
}

// TestPeekWindowEndAndCeiling mirrors Peek's boundary contract: an
// empty window means program end past i or an index at or past the
// ring's capacity.
func TestPeekWindowEndAndCeiling(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(10)}, 8)
	// A window only refills to i+1 (Peek parity), so on a cold queue it
	// returns the single record that pull made available...
	if w := q.PeekWindow(6, 32); len(w) != 1 || w[0].Seq != 6 {
		t.Fatalf("cold window = %d records, want exactly 1 (refill parity)", len(w))
	}
	// ...and serves everything already buffered once a deeper peek has
	// pulled the rest of the program in.
	q.Peek(9)
	w := q.PeekWindow(6, 32)
	if len(w) != 4 || w[0].Seq != 6 {
		t.Fatalf("buffered window near end = %d records starting %d, want 4 starting 6", len(w), w[0].Seq)
	}
	// Past program end: empty.
	if w := q.PeekWindow(10, 4); w != nil {
		t.Errorf("window past end = %d records", len(w))
	}
	// At the capacity on a fresh, still-producing queue: empty, and
	// nothing pulled.
	p := &sliceProducer{seq: mkSeq(64)}
	q2 := mustNew(t, p, 8)
	if w := q2.PeekWindow(len(q2.buf), 1); w != nil {
		t.Error("window at the capacity succeeded")
	}
	if p.i != 0 {
		t.Errorf("window at the capacity pulled %d records", p.i)
	}
}

// TestStateCapacityBound: a full ring round-trips through State, and a
// snapshot that counts one record more than the capacity fails as
// corrupt.
func TestStateCapacityBound(t *testing.T) {
	q := mustNew(t, &sliceProducer{seq: mkSeq(100)}, 8)
	capacity := len(q.buf)
	q.Pop() // move head off slot 0 so the saved ring wraps
	if _, ok := q.Peek(capacity - 1); !ok || q.n != capacity {
		t.Fatalf("ring holds %d of %d records after peeking its last slot", q.n, capacity)
	}
	save := checkpoint.NewStream()
	q.State(save)
	data := save.Finish()

	restored := mustNew(t, &sliceProducer{}, 8)
	ld, err := checkpoint.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State(ld); ld.Err() != nil {
		t.Fatalf("full ring did not load: %v", ld.Err())
	}
	again := checkpoint.NewStream()
	restored.State(again)
	if !bytes.Equal(again.Finish(), data) {
		t.Error("save(load(full ring)) differs from the snapshot")
	}
	for i := 0; i < capacity; i++ {
		want, _ := q.Pop()
		if got, ok := restored.Pop(); !ok || got.Seq != want.Seq {
			t.Fatalf("restored pop %d = %+v, %v; want Seq %d", i, got, ok, want.Seq)
		}
	}

	// Forcing the count past the capacity makes the save walk write
	// capacity+1 records (the last one wraps onto the head).
	over := mustNew(t, &sliceProducer{seq: mkSeq(100)}, 8)
	over.Peek(capacity - 1)
	over.n = capacity + 1
	save = checkpoint.NewStream()
	over.State(save)
	ld, err = checkpoint.Open(save.Finish())
	if err != nil {
		t.Fatal(err)
	}
	if mustNew(t, &sliceProducer{}, 8).State(ld); !errors.Is(ld.Err(), simerr.ErrTraceCorrupt) {
		t.Errorf("count capacity+1 loaded with err %v, want a corrupt-snapshot fault", ld.Err())
	}
}

// syntheticProducer emits an endless arithmetic instruction stream
// without allocating — the backdrop for allocation gates.
type syntheticProducer struct {
	seq uint64
}

func (p *syntheticProducer) Next() (trace.DynInst, bool) {
	var d trace.DynInst
	d.Seq = p.seq
	d.PC = 0x1000 + 4*p.seq
	p.seq++
	return d, true
}

func (p *syntheticProducer) NextBatch(dst []trace.DynInst) int {
	for i := range dst {
		dst[i] = trace.DynInst{Seq: p.seq, PC: 0x1000 + 4*p.seq}
		p.seq++
	}
	return len(dst)
}

// TestPopBatchAllocs pins the steady-state allocation count of the
// batched hot path at zero: once the ring is sized, draining lanes
// through PopBatch (with batched refills behind it) must not allocate.
func TestPopBatchAllocs(t *testing.T) {
	q := mustNew(t, &syntheticProducer{}, 256)
	dst := make([]trace.DynInst, 64)
	q.PopBatch(dst) // prime the ring
	if avg := testing.AllocsPerRun(200, func() {
		if q.PopBatch(dst) != len(dst) {
			t.Fatal("short batch from an endless producer")
		}
	}); avg != 0 {
		t.Errorf("PopBatch steady state allocates %.1f/op, want 0", avg)
	}
}

// TestPeekWindowAllocs: steady-state windowed scans are allocation-free
// too (they only slice the ring).
func TestPeekWindowAllocs(t *testing.T) {
	q := mustNew(t, &syntheticProducer{}, 256)
	q.Pop() // prime
	if avg := testing.AllocsPerRun(200, func() {
		i := 0
		for i < 128 {
			w := q.PeekWindow(i, 128-i)
			if len(w) == 0 {
				t.Fatal("empty window from an endless producer")
			}
			i += len(w)
		}
	}); avg != 0 {
		t.Errorf("PeekWindow steady state allocates %.1f/op, want 0", avg)
	}
}

// BenchmarkPop measures the per-record reference path.
func BenchmarkPop(b *testing.B) {
	q, err := New(&syntheticProducer{}, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Pop()
	}
}

// BenchmarkPopBatch measures the lane-based drain against per-record
// Pop at the same pull discipline.
func BenchmarkPopBatch(b *testing.B) {
	q, err := New(&syntheticProducer{}, 256)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]trace.DynInst, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(dst) {
		q.PopBatch(dst)
	}
}
