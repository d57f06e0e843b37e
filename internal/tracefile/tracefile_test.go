package tracefile_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/tracefile"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

func recordBFS(t *testing.T) *bytes.Buffer {
	t.Helper()
	inst := gap.BFS(gap.TestParams()).MustBuild()
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	fe := frontend.New(cpu)
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n, err := tracefile.Record(fe, w)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("empty trace")
	}
	return &buf
}

func TestRoundTripMatchesLiveStream(t *testing.T) {
	buf := recordBFS(t)

	// Re-generate the live stream and compare record by record.
	inst := gap.BFS(gap.TestParams()).MustBuild()
	fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop))
	r, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		want, okW := fe.Next()
		got, okG := r.Next()
		if okW != okG {
			t.Fatalf("record %d: live ok=%v, trace ok=%v", i, okW, okG)
		}
		if !okW {
			break
		}
		if got.PC != want.PC || got.In != want.In || got.MemAddr != want.MemAddr ||
			got.HasAddr != want.HasAddr || got.Taken != want.Taken ||
			got.NextPC != want.NextPC || got.Exit != want.Exit {
			t.Fatalf("record %d differs:\n got %+v\nwant %+v", i, got, want)
		}
		i++
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// TestTraceSimulationMatchesLive: the trace frontend must be
// performance-transparent — every technique it supports (everything but
// wpemul, which the capability check filters out) must project the
// exact cycles, instruction count, IPC and wrong-path activity of the
// live functional frontend.
func TestTraceSimulationMatchesLive(t *testing.T) {
	buf := recordBFS(t)
	tested := 0
	for _, k := range wrongpath.Kinds() {
		if k == wrongpath.WPEmul { // not replayable: see TestTraceRejectsWPEmul
			continue
		}
		tested++
		live, err := sim.Run(sim.Default(k), gap.BFS(gap.TestParams()).MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		replay, _, err := sim.Execute(sim.Request{Config: sim.Default(k), Trace: buf.Bytes()})
		if err != nil {
			t.Fatal(err)
		}
		if live.Core.Cycles != replay.Core.Cycles || live.Core.Instructions != replay.Core.Instructions {
			t.Errorf("%v: trace replay (%d cycles) != live (%d cycles)",
				k, replay.Core.Cycles, live.Core.Cycles)
		}
		if live.IPC() != replay.IPC() {
			t.Errorf("%v: trace replay IPC %.6f != live IPC %.6f", k, replay.IPC(), live.IPC())
		}
		if live.Core.WPFetched != replay.Core.WPFetched {
			t.Errorf("%v: wrong-path divergence: %d vs %d", k, replay.Core.WPFetched, live.Core.WPFetched)
		}
	}
	if want := len(wrongpath.Kinds()) - 1; tested != want {
		t.Fatalf("covered %d kinds, want %d", tested, want)
	}
}

func TestTraceRejectsWPEmul(t *testing.T) {
	buf := recordBFS(t)
	if _, _, err := sim.Execute(sim.Request{Config: sim.Default(wrongpath.WPEmul), Trace: buf.Bytes()}); err == nil {
		t.Fatal("trace replay accepted wpemul — the paper says it cannot work")
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := tracefile.NewReader(bytes.NewReader([]byte("NOTATRACE"))); !errors.Is(err, tracefile.ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

// drain replays every record it can and returns the count and Err().
func drain(t *testing.T, data []byte) (int, error) {
	t.Helper()
	r, err := tracefile.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	return n, r.Err()
}

func TestTruncatedTrace(t *testing.T) {
	buf := recordBFS(t)
	cut := buf.Bytes()[:buf.Len()/2]
	n, err := drain(t, cut)
	if n == 0 {
		t.Error("no records before truncation point")
	}
	if err == nil {
		t.Error("truncation not reported")
	}
	if !errors.Is(err, simerr.ErrTraceCorrupt) {
		t.Errorf("truncation err = %v, want ErrTraceCorrupt class", err)
	}
}

// writeSyntheticTrace writes a small trace exercising every record
// shape: plain ALU, memory with address, taken branch with target and
// redirected next PC, and the exit record. (testing.TB so the fuzz
// targets can seed their corpus with it.)
func writeSyntheticTrace(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pc := uint64(0x1000)
	for i := 0; i < 8; i++ {
		recs := []trace.DynInst{
			{PC: pc, In: isa.Inst{Op: isa.OpAddi, Rd: 5, Rs1: 6, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: int64(i) - 3}, NextPC: pc + 4},
			{PC: pc + 4, In: isa.Inst{Op: isa.OpLd, Rd: 7, Rs1: 5, Rs2: isa.RegNone, Rs3: isa.RegNone}, HasAddr: true, MemAddr: 0x8000 + uint64(i)*8, NextPC: pc + 8},
			{PC: pc + 8, In: isa.Inst{Op: isa.OpBeq, Rd: isa.RegNone, Rs1: 7, Rs2: 0, Rs3: isa.RegNone, Target: pc + 64}, Taken: true, NextPC: pc + 64},
		}
		for j := range recs {
			if err := w.Append(&recs[j]); err != nil {
				t.Fatal(err)
			}
		}
		pc += 64
	}
	exit := trace.DynInst{PC: pc, In: isa.Inst{Op: isa.OpEcall, Rd: isa.RegNone, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone}, Exit: true, NextPC: pc + 4}
	if err := w.Append(&exit); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTruncationEverywhereIsTypedOrClean cuts a trace at every prefix
// length: each cut must either end cleanly on a record boundary (Err()
// nil) or surface a typed ErrTraceCorrupt — never an untyped error, and
// never a hang or panic.
func TestTruncationEverywhereIsTypedOrClean(t *testing.T) {
	data := writeSyntheticTrace(t)
	full, err := drain(t, data)
	if err != nil {
		t.Fatal(err)
	}
	clean := 0
	for cut := 8; cut < len(data); cut++ { // 8 = len(magic)
		n, err := drain(t, faultinject.Truncate(data, int64(cut)))
		if err == nil {
			clean++
			continue
		}
		if !errors.Is(err, simerr.ErrTraceCorrupt) {
			t.Fatalf("cut at %d: err = %v, want ErrTraceCorrupt class", cut, err)
		}
		if n > full {
			t.Fatalf("cut at %d: produced %d records from a %d-record trace", cut, n, full)
		}
	}
	if clean == 0 {
		t.Error("no cut landed on a record boundary — suspicious sampling")
	}
}

// TestBitFlippedTrace flips single bytes in record headers: undefined
// flag bits and unknown opcodes must both decode to a typed
// ErrTraceCorrupt rather than a silently wrong replay.
func TestBitFlippedTrace(t *testing.T) {
	buf := recordBFS(t)
	data := buf.Bytes()

	// Byte 8 is the first record's flags byte: set an undefined bit.
	flags := faultinject.FlipByte(data, 8, 0x80)
	if _, err := drain(t, flags); !errors.Is(err, simerr.ErrTraceCorrupt) {
		t.Errorf("undefined flag bit: err = %v, want ErrTraceCorrupt class", err)
	}

	// Byte 9 is the first record's opcode: 0xFF is not an opcode.
	op := faultinject.FlipByte(data, 9, 0)
	if n, err := drain(t, op); !errors.Is(err, simerr.ErrTraceCorrupt) {
		t.Errorf("bad opcode: err = %v, want ErrTraceCorrupt class", err)
	} else if n != 0 {
		t.Errorf("bad opcode in record 0 still produced %d records", n)
	}
}

// TestCorruptTailKeepsPrefix: the sweep-level fault shape — a trace
// with a damaged tail must replay a non-empty valid prefix and then
// report typed corruption (or, if the flip happens to decode legally,
// at least not crash).
func TestCorruptTailKeepsPrefix(t *testing.T) {
	buf := recordBFS(t)
	data := buf.Bytes()
	full, err := drain(t, data)
	if err != nil {
		t.Fatal(err)
	}
	n, err := drain(t, faultinject.CorruptTail(data, 1))
	if n == 0 {
		t.Error("corrupt tail destroyed the valid prefix")
	}
	if err != nil && !errors.Is(err, simerr.ErrTraceCorrupt) {
		t.Errorf("corrupt tail err = %v, want ErrTraceCorrupt class", err)
	}
	if err == nil && n > full {
		t.Errorf("corrupt tail produced %d records from a %d-record trace", n, full)
	}
}

func TestWriterStripsWPStreams(t *testing.T) {
	// Record through a wpemul frontend (it emulates wrong paths, but
	// hands them out only through WrongPaths) and check replay carries
	// the correct path alone.
	inst := gap.BFS(gap.TestParams()).MustBuild()
	cpu := functional.New(inst.Prog, inst.Mem, inst.StackTop)
	cfg := sim.Default(wrongpath.WPEmul)
	fe := frontend.New(cpu, frontend.WithWrongPathEmulation(cfg.Core.BranchPred, cfg.Core.WPMaxLen()))
	var buf bytes.Buffer
	w, err := tracefile.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tracefile.Record(fe, w); err != nil {
		t.Fatal(err)
	}
	r, err := tracefile.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		di, ok := r.Next()
		if !ok {
			break
		}
		if di.WrongPath {
			t.Fatal("trace replay produced a wrong-path record")
		}
	}
}
