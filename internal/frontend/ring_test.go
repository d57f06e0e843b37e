package frontend

import (
	"testing"

	"repro/internal/trace"
)

// TestRingRandomized drives the path ring directly: many short
// episodes, each with paths of random length (0 to the slot size) and a
// consumer that lags by a random number of paths, holds up to a random
// number of taken buffers, and gives a random held one back as the
// spare of a later take, so the slots wrap, fill and grow. Each
// emulation may write its whole buffer, so it scribbles over all of it
// before writing its path. Every taken path must come back intact, in a
// buffer of the full slot size, and must stay intact until its buffer
// comes back as a spare.
func TestRingRandomized(t *testing.T) {
	const need = 9
	rng := uint64(1)
	rand := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	mark := func(seq uint64, j int) trace.DynInst { return trace.DynInst{Seq: seq, PC: uint64(j)} }
	intact := func(p []trace.DynInst, seq uint64, n int) bool {
		if len(p) != n {
			return false
		}
		for j := range p {
			if p[j] != mark(seq, j) {
				return false
			}
		}
		return true
	}

	type path struct {
		seq  uint64
		n    int
		recs []trace.DynInst
	}
	takes := 0
	for ep := 0; ep < 2_000; ep++ {
		r := ring{size: need}
		var fifo, held []path
		next, maxLag, maxHeld := uint64(0), 1+rand(6), 1+rand(4)
		for step := 0; step < 200; step++ {
			for _, h := range held {
				if !intact(h.recs, h.seq, h.n) {
					t.Fatalf("episode %d: path %d changed before its buffer came back", ep, h.seq)
				}
			}
			if len(fifo) == 0 || (len(fifo) < maxLag && rand(2) == 0) {
				slot := r.next()
				slot = slot[:cap(slot)]
				for j := range slot {
					slot[j] = trace.DynInst{Seq: ^uint64(0)}
				}
				n := rand(need + 1)
				for j := 0; j < n; j++ {
					slot[j] = mark(next, j)
				}
				r.push(span{seq: next, recs: slot[:n]})
				fifo = append(fifo, path{seq: next, n: n})
				next++
				continue
			}
			var spare []trace.DynInst
			if len(held) > 0 && (len(held) >= maxHeld || rand(2) == 0) {
				i := rand(len(held))
				spare = held[i].recs
				held = append(held[:i], held[i+1:]...)
			}
			p := fifo[0]
			fifo = fifo[1:]
			got, ok := r.take(p.seq, spare)
			if !ok || !intact(got.Recs, p.seq, p.n) || cap(got.Recs) < need {
				t.Fatalf("episode %d: path %d came back as %d records of %d capacity (ok %v), want %d intact of %d", ep, p.seq, len(got.Recs), cap(got.Recs), ok, p.n, need)
			}
			p.recs = got.Recs
			held = append(held, p)
			takes++
		}
		if _, ok := r.take(next, nil); ok {
			t.Fatal("take of a never-emulated path succeeded")
		}
		if len(r.paths) > 4*maxLag {
			t.Fatalf("episode %d: %d slots for at most %d untaken paths", ep, len(r.paths), maxLag)
		}
	}
	if takes < 100_000 {
		t.Fatalf("only %d takes", takes)
	}
}
