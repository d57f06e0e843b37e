package frontend_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/trace"
)

const loopSrc = `
    li   t0, 100
    li   s0, 0x10000
loop:
    ld   t1, 0(s0)
    beq  t1, zero, even
    addi t2, t2, 1
even:
    addi s0, s0, 8
    addi t0, t0, -1
    bnez t0, loop
    li   a7, 0
    li   a0, 0
    ecall
`

func newCPU(t *testing.T) *functional.CPU {
	t.Helper()
	prog, err := asm.Assemble(loopSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	for i := 0; i < 128; i++ {
		m.WriteUint64(0x10000+uint64(i)*8, uint64(i%3)) // mixed zero/non-zero
	}
	return functional.New(prog, m, 0)
}

func TestProducesAllInstructions(t *testing.T) {
	fe := frontend.New(newCPU(t))
	n := 0
	var sawExit bool
	for {
		di, ok := fe.Next()
		if !ok {
			break
		}
		n++
		if di.Exit {
			sawExit = true
		}
	}
	if !sawExit {
		t.Error("exit instruction not produced")
	}
	if uint64(n) != fe.Produced() {
		t.Errorf("count mismatch: %d vs %d", n, fe.Produced())
	}
	if fe.Err() != nil {
		t.Errorf("unexpected error: %v", fe.Err())
	}
	// Idempotent after end.
	if _, ok := fe.Next(); ok {
		t.Error("Next after end succeeded")
	}
}

func TestMaxInstructionsCap(t *testing.T) {
	fe := frontend.New(newCPU(t), frontend.WithMaxInstructions(10))
	n := 0
	for {
		if _, ok := fe.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("produced %d, want 10", n)
	}
}

func TestWrongPathEmulationAttachesStreams(t *testing.T) {
	cfg := branch.DefaultConfig()
	fe := frontend.New(newCPU(t), frontend.WithWrongPathEmulation(cfg, 64))
	take := fe.WrongPaths()

	// Mirror predictor: must detect the same mispredictions.
	mirror := branch.New(cfg)
	var mirrorMisses, nonEmpty int
	var spare []trace.DynInst
	for {
		di, ok := fe.Next()
		if !ok {
			break
		}
		if !di.IsControl() {
			continue
		}
		p := mirror.PredictAndUpdate(di.PC, di.In, di.Taken, di.NextPC)
		if !p.Mispredicted {
			continue
		}
		mirrorMisses++
		wp := take(di.Seq, spare).Recs
		if len(wp) > 64 {
			t.Fatal("emulated path exceeds cap")
		}
		for i := range wp {
			if !wp[i].WrongPath {
				t.Fatal("emulated path not marked wrong-path")
			}
		}
		if len(wp) > 0 {
			nonEmpty++
			// The wrong path starts at the predicted target.
			if wp[0].PC != p.Target {
				t.Fatalf("WP starts at %#x, predicted target %#x", wp[0].PC, p.Target)
			}
		}
		spare = wp
	}
	if err := fe.Err(); err != nil {
		t.Fatal(err)
	}
	paths, insts := fe.WPEmulations()
	if paths == 0 || insts == 0 || nonEmpty == 0 {
		t.Fatal("no wrong paths emulated")
	}
	if int(paths) != mirrorMisses {
		t.Errorf("frontend emulated %d paths, mirror predictor saw %d mispredicts", paths, mirrorMisses)
	}
}

func TestNoEmulationWithoutOption(t *testing.T) {
	fe := frontend.New(newCPU(t))
	if take := fe.WrongPaths(); take != nil {
		t.Fatal("WrongPaths without the emulation option")
	}
	for {
		di, ok := fe.Next()
		if !ok {
			break
		}
		if di.WrongPath {
			t.Fatal("wrong-path record produced without emulation option")
		}
	}
	if paths, _ := fe.WPEmulations(); paths != 0 {
		t.Error("emulation counted without option")
	}
}

// lcgSrc mispredicts on about half its iterations: LCG bits steer two
// branches, and a wrong path that reaches the print call stops there,
// so emulated paths vary in length.
const lcgSrc = `
    li   t0, 3000
    li   t1, 12345
    li   t2, 1103515245
    li   s0, 0x10000
loop:
    mul  t1, t1, t2
    addi t1, t1, 12345
    srli t3, t1, 16
    andi t4, t3, 1
    beqz t4, skip
    ld   t5, 0(s0)
    addi t5, t5, 1
    sd   t5, 0(s0)
    andi t4, t3, 2
    beqz t4, skip
    li   a7, 2
    li   a0, 46
    ecall
skip:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 0
    li a0, 0
    ecall
`

// TestWrongPathsRingKeepsPathsInStep drains the frontend ahead of a
// lagging consumer, as the decoupling queue does, with a small path cap
// so the ring wraps and grows. Every taken path must equal the path a
// lock-stepped reference CPU emulates for the same branch, and must
// still read the same until the consumer gives its buffer back as a
// spare.
func TestWrongPathsRingKeepsPathsInStep(t *testing.T) {
	const maxLen = 12
	prog, err := asm.Assemble(lcgSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := branch.DefaultConfig()
	fe := frontend.New(functional.New(prog, mem.New(), 0), frontend.WithWrongPathEmulation(cfg, maxLen))
	take := fe.WrongPaths()

	ref := functional.New(prog, mem.New(), 0)
	refPred := branch.New(cfg)
	want := map[uint64]trace.Path{}
	var produced []trace.DynInst
	var refDI trace.DynInst
	lane := make([]trace.DynInst, 7)

	// The consumer holds up to five taken paths and gives the oldest
	// one's buffer back as the spare of some takes, as the core's stream
	// stage does through its pool.
	var held, heldWant [][]trace.DynInst
	consumed, takes := 0, 0
	for round := 0; ; round++ {
		k := fe.NextBatch(lane)
		for _, di := range lane[:k] {
			if err := ref.Step(&refDI); err != nil {
				t.Fatal(err)
			}
			if di.IsControl() {
				if p := refPred.PredictAndUpdate(di.PC, di.In, di.Taken, di.NextPC); p.Mispredicted {
					recs, memOps, addrs := ref.AppendWrongPath(nil, p.Target, maxLen)
					want[di.Seq] = trace.Path{Recs: recs, MemOps: memOps, AddrKnown: addrs}
				}
			}
		}
		produced = append(produced, lane[:k]...)
		// The consumer lags by between 0 and 300 records.
		lag := (round * 37) % 301
		if k == 0 {
			lag = 0
		}
		for ; consumed < len(produced)-lag; consumed++ {
			di := &produced[consumed]
			w, ok := want[di.Seq]
			if !ok || !di.IsControl() {
				continue
			}
			for i := range held {
				if !equalPaths(held[i], heldWant[i]) {
					t.Fatalf("take %d: a held path changed before its buffer came back", takes)
				}
			}
			var spare []trace.DynInst
			if len(held) >= 5 || (len(held) > 0 && takes%3 == 0) {
				spare = held[0]
				held, heldWant = held[1:], heldWant[1:]
			}
			got := take(di.Seq, spare)
			if !equalPaths(got.Recs, w.Recs) {
				t.Fatalf("take %d (branch %d): got %d records, want %d, or contents differ", takes, di.Seq, len(got.Recs), len(w.Recs))
			}
			if got.MemOps != w.MemOps || got.AddrKnown != w.AddrKnown {
				t.Fatalf("take %d (branch %d): counts %d/%d, want %d/%d", takes, di.Seq, got.MemOps, got.AddrKnown, w.MemOps, w.AddrKnown)
			}
			held, heldWant = append(held, got.Recs), append(heldWant, w.Recs)
			takes++
		}
		if k == 0 {
			break
		}
	}
	if err := fe.Err(); err != nil {
		t.Fatal(err)
	}
	if paths, _ := fe.WPEmulations(); int(paths) != takes || takes < 500 {
		t.Fatalf("%d paths emulated, %d taken; want equal and at least 500", paths, takes)
	}
}

func equalPaths(a, b []trace.DynInst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWrongPathsOutOfStepFault: a take for a branch whose path was
// never emulated returns no records, handing the spare back, and ends
// the stream with an error; it never hands out another branch's path.
func TestWrongPathsOutOfStepFault(t *testing.T) {
	fe := frontend.New(newCPU(t), frontend.WithWrongPathEmulation(branch.DefaultConfig(), 64))
	take := fe.WrongPaths()
	lane := make([]trace.DynInst, 64)
	if fe.NextBatch(lane) == 0 {
		t.Fatal("no records")
	}
	if paths, _ := fe.WPEmulations(); paths == 0 {
		t.Fatal("no path emulated in the first lane")
	}
	spare := make([]trace.DynInst, 3, 64)
	if wp := take(1<<40, spare); len(wp.Recs) != 0 || &wp.Recs[:1][0] != &spare[0] {
		t.Fatalf("out-of-step take returned %d records, not the spare", len(wp.Recs))
	}
	if n := fe.NextBatch(lane); n != 0 {
		t.Fatalf("stream went on for %d records after an out-of-step take", n)
	}
	if fe.Err() == nil {
		t.Fatal("out-of-step take latched no error")
	}
}

func TestFrontendSurfacesFunctionalErrors(t *testing.T) {
	// A program that runs off its end.
	prog := asm.MustAssemble("nop")
	fe := frontend.New(functional.New(prog, mem.New(), 0))
	if _, ok := fe.Next(); !ok {
		t.Fatal("first instruction failed")
	}
	if _, ok := fe.Next(); ok {
		t.Fatal("instruction past program end produced")
	}
	if fe.Err() == nil {
		t.Error("functional error not surfaced")
	}
}
