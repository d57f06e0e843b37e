package wrongpath

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/trace"
)

const none = isa.RegNone

// The test program is the paper's Figure 2 one-sided branch:
//
//	0x100: beq  a0, zero, 0x120    the mispredicted branch
//	0x104: addi t0, t0, 1          W  (wrong-path-only prefix)
//	0x108: addi t1, t1, 1          X
//	0x10c: ld   a1, 0(s0)          Y
//	0x110: j    0x120              Z
//	0x120: ld   a2, 0(s1)          A  (convergence point; clean base s1)
//	0x124: addi a3, a2, 1          B
//	0x128: ld   a4, 0(t0)          C  (base t0 is dirty after W)
//	0x12c: j    0x100              D  (loop back)
var testProg = map[uint64]isa.Inst{
	0x100: {Op: isa.OpBeq, Rd: none, Rs1: isa.A0, Rs2: isa.X0, Rs3: none, Target: 0x120},
	0x104: {Op: isa.OpAddi, Rd: isa.T0, Rs1: isa.T0, Rs2: none, Rs3: none, Imm: 1},
	0x108: {Op: isa.OpAddi, Rd: isa.T1, Rs1: isa.T1, Rs2: none, Rs3: none, Imm: 1},
	0x10c: {Op: isa.OpLd, Rd: isa.A1, Rs1: isa.S0, Rs2: none, Rs3: none},
	0x110: {Op: isa.OpJal, Rd: isa.X0, Rs1: none, Rs2: none, Rs3: none, Target: 0x120},
	0x120: {Op: isa.OpLd, Rd: isa.A2, Rs1: isa.S1, Rs2: none, Rs3: none},
	0x124: {Op: isa.OpAddi, Rd: isa.A3, Rs1: isa.A2, Rs2: none, Rs3: none, Imm: 1},
	0x128: {Op: isa.OpLd, Rd: isa.A4, Rs1: isa.T0, Rs2: none, Rs3: none},
	0x12c: {Op: isa.OpJal, Rd: isa.X0, Rs1: none, Rs2: none, Rs3: none, Target: 0x100},
}

func newCode() *codecache.Cache {
	c := codecache.New()
	for pc, in := range testProg {
		c.InsertGet(pc, &in)
	}
	return c
}

// takenCP builds the correct path after the branch when it is taken:
// repeated loop iterations 0x120,0x124,0x128,0x12c,0x100(taken),…
// Every memory instruction gets a distinct address.
func takenCP(iters int) []trace.DynInst {
	var cp []trace.DynInst
	addr := uint64(0xa000)
	for i := 0; i < iters; i++ {
		cp = append(cp,
			trace.DynInst{PC: 0x120, In: testProg[0x120], MemAddr: addr, HasAddr: true, NextPC: 0x124},
			trace.DynInst{PC: 0x124, In: testProg[0x124], NextPC: 0x128},
			trace.DynInst{PC: 0x128, In: testProg[0x128], MemAddr: addr + 0x1000, HasAddr: true, NextPC: 0x12c},
			trace.DynInst{PC: 0x12c, In: testProg[0x12c], Taken: true, NextPC: 0x100},
			trace.DynInst{PC: 0x100, In: testProg[0x100], Taken: true, NextPC: 0x120},
		)
		addr += 8
	}
	return cp
}

// windowOf serves cp as the queued correct path: the view starting at
// i, at most max records, empty past the end.
func windowOf(cp []trace.DynInst) func(i, max int) []trace.DynInst {
	return func(i, max int) []trace.DynInst {
		if i < 0 || i >= len(cp) {
			return nil
		}
		return cp[i:min(i+max, len(cp))]
	}
}

func newCtx(cp []trace.DynInst) *Context {
	return &Context{
		Code:    newCode(),
		Pred:    branch.New(branch.DefaultConfig()),
		Window:  windowOf(cp),
		ROBSize: 64,
		MaxLen:  72,
	}
}

// theBranch is the mispredicted-branch record (actually taken).
func theBranch() *trace.DynInst {
	return &trace.DynInst{PC: 0x100, In: testProg[0x100], Taken: true, NextPC: 0x120}
}

func TestKindNames(t *testing.T) {
	for _, k := range []Kind{NoWP, InstRec, Conv, ConvResolve, WPEmul} {
		name := k.String()
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", name, got, ok)
		}
		if New(k).Kind() != k {
			t.Errorf("New(%v).Kind() = %v", k, New(k).Kind())
		}
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind name")
	}
	if _, ok := ParseKind("bogus"); ok {
		t.Error("ParseKind accepted junk")
	}
}

func TestNoWP(t *testing.T) {
	p := New(NoWP)
	wp := p.Begin(newCtx(takenCP(4)), theBranch(), 0x104)
	if wp != nil {
		t.Errorf("nowp returned %d instructions", len(wp))
	}
	if p.Stats().Mispredicts != 1 {
		t.Error("mispredict not counted")
	}
}

func TestInstRecReconstruction(t *testing.T) {
	p := New(InstRec)
	ctx := newCtx(takenCP(4))
	wp := p.Begin(ctx, theBranch(), 0x104)

	// The wrong path starts at the predicted (fall-through) target and
	// follows W X Y Z then the loop.
	wantPCs := []uint64{0x104, 0x108, 0x10c, 0x110, 0x120, 0x124, 0x128, 0x12c, 0x100}
	if len(wp) < len(wantPCs) {
		t.Fatalf("wrong path too short: %d", len(wp))
	}
	for i, want := range wantPCs {
		if wp[i].PC != want {
			t.Errorf("wp[%d].PC = %#x, want %#x", i, wp[i].PC, want)
		}
		if !wp[i].WrongPath {
			t.Errorf("wp[%d] not marked wrong path", i)
		}
		if wp[i].HasAddr {
			t.Errorf("wp[%d] has an address; instrec cannot know any", i)
		}
	}
	// The wrong-path conditional at 0x100 is predicted not-taken by the
	// cold predictor, so the walk falls through to 0x104 again.
	if wp[9].PC != 0x104 {
		t.Errorf("wp[9].PC = %#x, want 0x104 (predicted fall-through)", wp[9].PC)
	}
	// Length cap respected.
	if len(wp) > ctx.MaxLen {
		t.Errorf("wrong path length %d exceeds cap %d", len(wp), ctx.MaxLen)
	}
}

func TestInstRecStopsAtCodeCacheMiss(t *testing.T) {
	p := New(InstRec)
	ctx := newCtx(takenCP(2))
	// 0x130 was never delivered by the functional simulator.
	wp := p.Begin(ctx, theBranch(), 0x130)
	if len(wp) != 0 {
		t.Errorf("reconstruction from unseen PC produced %d instructions", len(wp))
	}
}

func TestInstRecStopsAtEcall(t *testing.T) {
	ctx := newCtx(nil)
	ctx.Code.InsertGet(0x200, &isa.Inst{Op: isa.OpAddi, Rd: isa.T0, Rs1: isa.T0, Rs2: none, Rs3: none})
	ctx.Code.InsertGet(0x204, &isa.Inst{Op: isa.OpEcall, Rd: none, Rs1: none, Rs2: none, Rs3: none})
	p := New(InstRec)
	wp := p.Begin(ctx, theBranch(), 0x200)
	if len(wp) != 1 {
		t.Errorf("wrong path through ecall: %d instructions, want 1", len(wp))
	}
}

func TestInstRecStopsAtColdIndirect(t *testing.T) {
	ctx := newCtx(nil)
	ctx.Code.InsertGet(0x200, &isa.Inst{Op: isa.OpJalr, Rd: isa.X0, Rs1: isa.T0, Rs2: none, Rs3: none})
	p := New(InstRec)
	wp := p.Begin(ctx, theBranch(), 0x200)
	// The indirect jump itself is fetched, but the walk cannot continue.
	if len(wp) != 1 {
		t.Errorf("wrong path past unpredictable indirect: %d instructions", len(wp))
	}
}

func TestInstRecFollowsRAS(t *testing.T) {
	ctx := newCtx(nil)
	// call 0x300; at 0x300 a ret should come back to 0x204 via the
	// scratch RAS.
	ctx.Code.InsertGet(0x200, &isa.Inst{Op: isa.OpJal, Rd: isa.RA, Rs1: none, Rs2: none, Rs3: none, Target: 0x300})
	ctx.Code.InsertGet(0x204, &isa.Inst{Op: isa.OpAddi, Rd: isa.T0, Rs1: isa.T0, Rs2: none, Rs3: none})
	ctx.Code.InsertGet(0x300, &isa.Inst{Op: isa.OpJalr, Rd: isa.X0, Rs1: isa.RA, Rs2: none, Rs3: none})
	p := New(InstRec)
	wp := p.Begin(ctx, theBranch(), 0x200)
	wantPCs := []uint64{0x200, 0x300, 0x204}
	if len(wp) != 3 {
		t.Fatalf("wrong path = %d instructions, want 3", len(wp))
	}
	for i, want := range wantPCs {
		if wp[i].PC != want {
			t.Errorf("wp[%d].PC = %#x, want %#x", i, wp[i].PC, want)
		}
	}
}

func TestConvCaseADetectionAndRecovery(t *testing.T) {
	cp := takenCP(8)
	ctx := newCtx(cp)
	p := NewConv()
	wp := p.Begin(ctx, theBranch(), 0x104)

	s := p.Stats()
	if s.ConvChecked != 1 || s.ConvDetected != 1 {
		t.Fatalf("conv checked/detected = %d/%d", s.ConvChecked, s.ConvDetected)
	}
	// Case A: the correct path's first instruction (0x120) appears at
	// wrong-path index 4 (after W X Y Z).
	if s.ConvDistSum != 4 {
		t.Errorf("conv dist = %d, want 4", s.ConvDistSum)
	}
	// wp[4] is the convergence point: ld a2, 0(s1); s1 was not written
	// on the prefix, so its address is copied from the correct path.
	if !wp[4].HasAddr || !wp[4].Recovered || wp[4].MemAddr != cp[0].MemAddr {
		t.Errorf("convergence-point load not recovered: %+v", wp[4])
	}
	// wp[6] is ld a4, 0(t0); t0 is dirty (written by W), so the
	// independence check must reject the copy.
	if wp[6].HasAddr {
		t.Errorf("dirty-base load recovered: %+v", wp[6])
	}
	// wp[3] (the pre-convergence Y load) has no correct-path
	// counterpart and stays address-less.
	if wp[3].HasAddr {
		t.Error("pre-convergence load recovered")
	}
	// The cold predictor predicts the loop branch (0x100) not-taken
	// while the correct path takes it, so the match stops after one
	// iteration: exactly one recovered address.
	if s.WPAddrRecovered != 1 {
		t.Errorf("recovered = %d, want 1", s.WPAddrRecovered)
	}
	if s.MatchLen() < 4 || s.MatchLen() > 6 {
		t.Errorf("match length = %f", s.MatchLen())
	}
}

func TestConvCaseBDetection(t *testing.T) {
	// The branch is actually NOT taken but was predicted taken: the
	// wrong path starts at 0x120 and the correct path goes W X Y Z
	// before converging at 0x120.
	cp := []trace.DynInst{
		{PC: 0x104, In: testProg[0x104], NextPC: 0x108},
		{PC: 0x108, In: testProg[0x108], NextPC: 0x10c},
		{PC: 0x10c, In: testProg[0x10c], MemAddr: 0x9000, HasAddr: true, NextPC: 0x110},
		{PC: 0x110, In: testProg[0x110], Taken: true, NextPC: 0x120},
	}
	cp = append(cp, takenCP(6)...)
	ctx := newCtx(cp)
	p := NewConv()
	br := &trace.DynInst{PC: 0x100, In: testProg[0x100], Taken: false, NextPC: 0x104}
	wp := p.Begin(ctx, br, 0x120)

	s := p.Stats()
	if s.ConvDetected != 1 {
		t.Fatal("no convergence detected")
	}
	// Case B distance: 0x120 appears after 4 correct-path instructions.
	if s.ConvDistSum != 4 {
		t.Errorf("conv dist = %d, want 4", s.ConvDistSum)
	}
	// wp[0] is the convergence point; s1 clean, so recovered from the
	// correct-path instruction at index 4.
	if !wp[0].HasAddr || wp[0].MemAddr != cp[4].MemAddr {
		t.Errorf("case-B convergence load not recovered: %+v", wp[0])
	}
	// t0 was written on the correct-path prefix (W), so the dirty set
	// must reject ld a4, 0(t0) at wp[2].
	if wp[2].HasAddr {
		t.Error("case-B dirty-base load recovered")
	}
}

func TestConvNoConvergence(t *testing.T) {
	// A correct path that never revisits the wrong path's PCs.
	other := isa.Inst{Op: isa.OpAddi, Rd: isa.T2, Rs1: isa.T2, Rs2: none, Rs3: none}
	var cp []trace.DynInst
	for i := 0; i < 100; i++ {
		cp = append(cp, trace.DynInst{PC: 0x8000 + uint64(4*i), In: other})
	}
	ctx := newCtx(cp)
	p := NewConv()
	wp := p.Begin(ctx, theBranch(), 0x104)
	if p.Stats().ConvDetected != 0 {
		t.Error("phantom convergence detected")
	}
	for i := range wp {
		if wp[i].HasAddr {
			t.Fatalf("wp[%d] recovered without convergence", i)
		}
	}
}

func TestConvIndirectMispredictSkipsCheck(t *testing.T) {
	ctx := newCtx(takenCP(4))
	p := NewConv()
	br := &trace.DynInst{
		PC: 0x100,
		In: isa.Inst{Op: isa.OpJalr, Rd: isa.X0, Rs1: isa.T0, Rs2: none, Rs3: none},
	}
	p.Begin(ctx, br, 0x104)
	if p.Stats().ConvChecked != 0 {
		t.Error("convergence checked for an indirect mispredict")
	}
}

func TestConvOptimismAblation(t *testing.T) {
	cp := takenCP(8)
	ctx := newCtx(cp)
	p := NewConv()
	p.DisableIndependenceCheck = true
	wp := p.Begin(ctx, theBranch(), 0x104)
	// Without the check the dirty-base load at wp[6] is (wrongly)
	// recovered too.
	if !wp[6].HasAddr {
		t.Error("optimism ablation did not recover the dirty-base load")
	}
	if p.Stats().WPAddrRecovered < 2 {
		t.Errorf("recovered = %d, want >= 2", p.Stats().WPAddrRecovered)
	}
}

func TestConvResolveFollowsCleanBranches(t *testing.T) {
	cp := takenCP(12)
	ctx := newCtx(cp)
	p := New(ConvResolve)
	wp := p.Begin(ctx, theBranch(), 0x104)

	// The loop branch at 0x100 has clean sources (a0 is never written),
	// so the rebuilt wrong path resolves it along the correct path and
	// keeps recovering addresses across iterations — one 0x120 load per
	// iteration, well beyond plain conv's single recovery.
	recovered := 0
	for i := range wp {
		if wp[i].PC == 0x120 && wp[i].HasAddr {
			recovered++
		}
	}
	if recovered < 5 {
		t.Errorf("convres recovered %d loop loads, want >= 5", recovered)
	}
	// The dirty chain through t0 still blocks 0x128 everywhere.
	for i := range wp {
		if wp[i].PC == 0x128 && wp[i].HasAddr {
			t.Fatalf("convres recovered dirty-base load at wp[%d]", i)
		}
	}
	// Wrong-path records must be in fetch order with contiguous control
	// flow: each NextPC equals the following record's PC.
	for i := 0; i+1 < len(wp); i++ {
		if wp[i].NextPC != wp[i+1].PC {
			t.Fatalf("wp[%d].NextPC = %#x but wp[%d].PC = %#x", i, wp[i].NextPC, i+1, wp[i+1].PC)
		}
	}
}

func TestConvResolveDirtyBranchDiverges(t *testing.T) {
	// Replace the loop-back branch with one that depends on t0 (dirty):
	// the rebuilt path must follow the prediction at that branch, not
	// the correct path.
	prog := map[uint64]isa.Inst{}
	for pc, in := range testProg {
		prog[pc] = in
	}
	prog[0x12c] = isa.Inst{Op: isa.OpBne, Rd: none, Rs1: isa.T0, Rs2: isa.X0, Rs3: none, Target: 0x100}

	code := codecache.New()
	for pc, in := range prog {
		code.InsertGet(pc, &in)
	}
	// Correct path: one iteration, then the dirty branch is taken back
	// to 0x100 and loops.
	var cp []trace.DynInst
	addr := uint64(0xa000)
	for i := 0; i < 6; i++ {
		cp = append(cp,
			trace.DynInst{PC: 0x120, In: prog[0x120], MemAddr: addr, HasAddr: true, NextPC: 0x124},
			trace.DynInst{PC: 0x124, In: prog[0x124], NextPC: 0x128},
			trace.DynInst{PC: 0x128, In: prog[0x128], MemAddr: addr + 0x1000, HasAddr: true, NextPC: 0x12c},
			trace.DynInst{PC: 0x12c, In: prog[0x12c], Taken: true, NextPC: 0x100},
			trace.DynInst{PC: 0x100, In: prog[0x100], Taken: true, NextPC: 0x120},
		)
		addr += 8
	}
	ctx := &Context{
		Code:    code,
		Pred:    branch.New(branch.DefaultConfig()),
		Window:  windowOf(cp),
		ROBSize: 64,
		MaxLen:  72,
	}
	p := New(ConvResolve)
	br := &trace.DynInst{PC: 0x100, In: prog[0x100], Taken: true, NextPC: 0x120}
	wp := p.Begin(ctx, br, 0x104)

	// Find the rebuilt 0x12c (the dirty bne): the cold predictor says
	// not-taken while the correct path takes it, so the wrong path must
	// fall through to 0x130 — where the code cache misses and the walk
	// ends.
	for i := range wp {
		if wp[i].PC == 0x12c {
			if wp[i].Taken {
				t.Fatal("dirty branch followed the correct path instead of the prediction")
			}
			if i != len(wp)-1 {
				t.Fatalf("walk continued past unreachable fall-through: %d > %d", len(wp)-1, i)
			}
			return
		}
	}
	t.Fatal("rebuilt wrong path never reached the dirty branch")
}

func TestStatsHelpers(t *testing.T) {
	s := &Stats{}
	if s.ConvFrac() != 0 || s.ConvDist() != 0 || s.AddrRecoverFrac() != 0 || s.MatchLen() != 0 {
		t.Error("zero stats not zero")
	}
	s.ConvChecked = 4
	s.ConvDetected = 3
	s.ConvDistSum = 30
	s.WPMemOps = 10
	s.WPAddrRecovered = 5
	s.ConvMatchLenSum = 60
	if s.ConvFrac() != 0.75 {
		t.Errorf("ConvFrac = %f", s.ConvFrac())
	}
	if s.ConvDist() != 10 {
		t.Errorf("ConvDist = %f", s.ConvDist())
	}
	if s.AddrRecoverFrac() != 0.5 {
		t.Errorf("AddrRecoverFrac = %f", s.AddrRecoverFrac())
	}
	if s.MatchLen() != 20 {
		t.Errorf("MatchLen = %f", s.MatchLen())
	}
}

func TestWPEmulPolicyPassesThrough(t *testing.T) {
	p := New(WPEmul)
	ctx := newCtx(nil)
	// The counts come with the path, taken as the frontend wrote it.
	ctx.Emulated = trace.Path{Recs: []trace.DynInst{
		{PC: 0x104, In: testProg[0x104], WrongPath: true},
		{PC: 0x108, In: testProg[0x10c], MemAddr: 0x77, HasAddr: true, WrongPath: true},
	}, MemOps: 1, AddrKnown: 1}
	wp := p.Begin(ctx, theBranch(), 0x104)
	if len(wp) != 2 {
		t.Fatalf("wpemul returned %d records", len(wp))
	}
	s := p.Stats()
	if s.WPGenerated != 2 || s.WPMemOps != 1 || s.WPAddrRecovered != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRegSet(t *testing.T) {
	var s regSet
	s.add(isa.A0)
	s.add(isa.F(5))
	if !s.has(isa.A0) || !s.has(isa.F(5)) {
		t.Error("add/has failed")
	}
	if s.has(isa.A1) {
		t.Error("phantom membership")
	}
	if s.has(isa.RegNone) {
		t.Error("RegNone in set")
	}
	s.remove(isa.A0)
	if s.has(isa.A0) {
		t.Error("remove failed")
	}
}
