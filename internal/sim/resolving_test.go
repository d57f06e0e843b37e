package sim

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// The paths through convres's Begin that TestResolvingBeginMatchesEager
// counts. Each names what the eager reference saw on one call.
const (
	pathCaseA         = iota // convergence: the correct path's head inside the wrong path
	pathCaseB                // convergence: the wrong path's head down the correct path
	pathTie                  // distA == distB (case A wins)
	pathNoCaseB              // no case B within ROBSize
	pathShortWalk            // the detect-first walk ends before its limit
	pathEmptyWindow          // no correct path queued (program end)
	pathNoConvergence        // neither case found
	pathPreConvFailed        // a window ran out on the pre-convergence walk
	numPaths
)

var pathNames = [numPaths]string{
	"case A", "case B", "tie", "no case B", "short first walk",
	"empty window", "no convergence", "preConvergence failed",
}

// eagerConvres is the order convres used before it detected first: it
// reconstructs the whole wrong path, detects on it, and rebuilds the
// post-convergence part. It is a self-contained copy, written against
// the exported API only, so it checks the policy rather than sharing
// its code.
type eagerConvres struct {
	stats wrongpath.Stats
	buf   []trace.DynInst
	ras   branch.RAS
}

// begin returns the wrong path and which of the counted paths the call
// took.
func (p *eagerConvres) begin(ctx *wrongpath.Context, br *trace.DynInst, target uint64) ([]trace.DynInst, [numPaths]bool) {
	var took [numPaths]bool
	p.stats.Mispredicts++
	wp := p.reconstruct(ctx, target, ctx.Pred.SpecHistory(), p.buf[:0])
	if len(wp) > 0 && br.In.Op.IsCondBranch() {
		p.stats.ConvChecked++
		wp = p.recoverResolving(ctx, wp, &took)
	}
	p.buf = wp
	for i := range wp {
		if wp[i].In.Op.IsMem() {
			p.stats.WPMemOps++
		}
	}
	p.stats.WPGenerated += uint64(len(wp))
	return wp, took
}

func (p *eagerConvres) reconstruct(ctx *wrongpath.Context, pc, hist uint64, buf []trace.DynInst) []trace.DynInst {
	ctx.Pred.SnapshotRASInto(&p.ras)
	buf = slices.Grow(buf, ctx.MaxLen-len(buf))
	for len(buf) < ctx.MaxLen {
		in, m, ok := ctx.Code.LookupMeta(pc)
		if !ok || m.IsEcall() {
			break
		}
		buf = append(buf, trace.DynInst{PC: pc, In: *in, WrongPath: true})
		di := &buf[len(buf)-1]
		next := pc + isa.InstBytes
		switch {
		case m.IsCondBranch():
			di.Taken, hist = ctx.Pred.PredictCondSpec(pc, hist)
			if di.Taken {
				next = in.Target
			}
		case in.Op == isa.OpJal:
			di.Taken = true
			next = in.Target
			if branch.IsCall(*in) {
				p.ras.Push(pc + isa.InstBytes)
			}
		case in.Op == isa.OpJalr:
			di.Taken = true
			var t uint64
			if branch.IsReturn(*in) {
				t, ok = p.ras.Pop()
			} else {
				t, ok = ctx.Pred.PredictIndirect(pc)
				if branch.IsCall(*in) {
					p.ras.Push(pc + isa.InstBytes)
				}
			}
			if !ok {
				return buf
			}
			next = t
		}
		di.NextPC = next
		pc = next
	}
	return buf
}

func (p *eagerConvres) recoverResolving(ctx *wrongpath.Context, wp []trace.DynInst, took *[numPaths]bool) []trace.DynInst {
	w0 := ctx.Window(0, 1)
	if len(w0) == 0 {
		took[pathEmptyWindow] = true
		return wp
	}
	distA := -1
	for k := 1; k < len(wp) && k <= ctx.ROBSize; k++ {
		if wp[k].PC == w0[0].PC {
			distA = k
			break
		}
	}
	distB := -1
scanB:
	for k := 1; k <= ctx.ROBSize; {
		w := ctx.Window(k, ctx.ROBSize+1-k)
		if len(w) == 0 {
			break
		}
		for j := range w {
			if w[j].PC == wp[0].PC {
				distB = k + j
				break scanB
			}
		}
		k += len(w)
	}
	reach := ctx.ROBSize
	if distB >= 0 {
		reach = distB
	} else {
		took[pathNoCaseB] = true
	}
	took[pathShortWalk] = len(wp) < min(reach+1, ctx.MaxLen)
	took[pathTie] = distA >= 0 && distA == distB
	caseA := distA >= 0 && (distB < 0 || distA <= distB)
	var dist int
	switch {
	case caseA:
		dist = distA
		took[pathCaseA] = true
	case distB >= 0:
		dist = distB
		took[pathCaseB] = true
	default:
		took[pathNoConvergence] = true
		return wp
	}
	p.stats.ConvDetected++
	p.stats.ConvDistSum += uint64(dist)

	var dirty uint64 // register bitmask
	mark := func(in *isa.Inst) {
		if rd, ok := in.Dest(); ok {
			dirty |= 1 << uint(rd)
		}
	}
	isDirty := func(r isa.Reg) bool { return r.Valid() && dirty&(1<<uint(r)) != 0 }
	wpIdx, cpIdx := 0, dist
	if caseA {
		for i := 0; i < dist; i++ {
			mark(&wp[i].In)
		}
		wpIdx, cpIdx = dist, 0
	} else {
		for i := 0; i < dist; {
			w := ctx.Window(i, dist-i)
			if len(w) == 0 {
				took[pathPreConvFailed] = true
				return wp
			}
			for j := range w {
				mark(&w[j].In)
			}
			i += len(w)
		}
	}

	out := wp[:wpIdx]
	hist := ctx.Pred.SpecHistory()
	for len(out) < ctx.MaxLen {
		w := ctx.Window(cpIdx, ctx.MaxLen-len(out))
		if len(w) == 0 {
			break
		}
		for j := range w {
			ci := &w[j]
			m := ctx.Code.MetaFor(ci.PC, &ci.In)
			if m.IsEcall() {
				return out
			}
			out = append(out, trace.DynInst{PC: ci.PC, In: ci.In, WrongPath: true})
			di := &out[len(out)-1]
			srcDirty := false
			for s := uint8(0); s < m.NSrcs; s++ {
				srcDirty = srcDirty || isDirty(m.Srcs[s])
			}
			if m.IsMem() && ci.HasAddr && !isDirty(m.Base) {
				di.MemAddr, di.HasAddr, di.Recovered = ci.MemAddr, true, true
				p.stats.WPAddrRecovered++
			}
			if m.HasDst {
				if srcDirty {
					dirty |= 1 << uint(m.Dst)
				} else {
					dirty &^= 1 << uint(m.Dst)
				}
			}
			p.stats.ConvMatchLenSum++
			if m.IsControl() && srcDirty {
				var predTaken bool
				predTaken, hist = ctx.Pred.PredictCondSpec(di.PC, hist)
				if m.IsCondBranch() && predTaken != ci.Taken {
					di.Taken = predTaken
					di.NextPC = di.PC + isa.InstBytes
					if predTaken {
						di.NextPC = ci.In.Target
					}
					return p.reconstruct(ctx, di.NextPC, hist, out)
				}
				if !m.IsCondBranch() {
					di.Taken = true
					di.NextPC = ci.NextPC
					return out
				}
			}
			if m.IsCondBranch() {
				_, hist = ctx.Pred.PredictCondSpec(di.PC, hist)
			}
			di.Taken = ci.Taken
			di.NextPC = ci.NextPC
			cpIdx++
			if len(out) >= ctx.MaxLen {
				return out
			}
		}
	}
	return out
}

// resolvingCheck is the policy under test, wrapped: at every
// mispredict it runs the eager reference and then the policy on the
// same Context and compares their records byte for byte and their
// statistics field by field. perturb, when set, may replace the
// Context both of them see.
type resolvingCheck struct {
	wrongpath.Policy
	ref     eagerConvres
	perturb func(call int, ctx *wrongpath.Context) *wrongpath.Context
	calls   int
	paths   [numPaths]int
	err     error // the first mismatch
}

func (c *resolvingCheck) Begin(ctx *wrongpath.Context, br *trace.DynInst, target uint64) []trace.DynInst {
	if c.perturb != nil {
		ctx = c.perturb(c.calls, ctx)
	}
	c.calls++
	want, took := c.ref.begin(ctx, br, target)
	got := c.Policy.Begin(ctx, br, target)
	for i, t := range took {
		if t {
			c.paths[i]++
		}
	}
	if c.err == nil {
		switch {
		case string(recordBytes(got)) != string(recordBytes(want)):
			c.err = fmt.Errorf("call %d (pc %#x, paths %v): %d records, want %d; first difference at record %d",
				c.calls, br.PC, took, len(got), len(want), firstDiff(got, want))
		case *c.Policy.Stats() != c.ref.stats:
			c.err = fmt.Errorf("call %d (pc %#x, paths %v): stats %+v, want %+v",
				c.calls, br.PC, took, *c.Policy.Stats(), c.ref.stats)
		}
	}
	return got
}

func recordBytes(r []trace.DynInst) []byte {
	if len(r) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&r[0])), len(r)*int(unsafe.Sizeof(r[0])))
}

func firstDiff(a, b []trace.DynInst) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// rarePathSource reaches the paths the benchmark inputs seldom take.
// Its inner loop's data-dependent branch picks one of two arms of equal
// length from a pseudo-random bit, so a mispredict's two paths meet at
// the same distance (the tie) whenever the branch's next copy leads each
// path into the other's arm: predicted that way on the wrong path,
// taken that way on the correct one. The odd arm prints, and a wrong
// path into it ends at the environment call long before the case-A
// reach. Each loop runs more than ROBSize
// instructions before the other one starts again, so a mispredicted
// loop exit finds neither case: the wrong path keeps looping and the
// correct path does not come back within the ROB.
const rarePathSource = `
.entry main
main:
    li   s0, 12345
    li   s2, 1103515245
    li   s3, 30
outer:
    li   s1, 60
loop:
    mul  s0, s0, s2
    addi s0, s0, 12345
    srli t0, s0, 17
    andi t0, t0, 1
    bnez t0, odd
even:
    addi a1, a1, 1
    nop
    nop
    j    next
odd:
    addi a2, a2, 1
    li   a7, 2
    ecall
    j    next
next:
    addi s1, s1, -1
    bnez s1, loop
    li   t1, 100
spin:
    addi t1, t1, -1
    addi a3, a3, 1
    addi a4, a4, 1
    addi a5, a5, 1
    addi a6, a6, 1
    bnez t1, spin
    addi s3, s3, -1
    bnez s3, outer
    li   a7, 0
    ecall
`

// TestResolvingBeginMatchesEager checks that convres, which detects
// convergence before it generates the wrong path, returns exactly the
// records and statistics of the eager order (reconstruct the whole path,
// detect, rebuild) at every mispredict of GAP, SPEC-INT and a small
// assembled program, and that each path through the new order is taken
// often enough for a broken one to show.
func TestResolvingBeginMatchesEager(t *testing.T) {
	type input struct {
		name    string
		w       workloads.Workload
		perturb func(call int, ctx *wrongpath.Context) *wrongpath.Context
	}
	var inputs []input
	for _, in := range []struct{ suite, bench string }{
		{"gap", "bfs"}, {"gap", "cc"}, {"gap", "sssp"},
		{"specint", "treewalk"}, {"specint", "sadscan"}, {"specint", "hashtab"}, {"specint", "blocksort"},
	} {
		w, err := catalog.Find(in.suite, in.bench, catalog.Params{N: 4096, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name: in.suite + "/" + in.bench, w: w})
	}
	rare := workloads.Workload{Suite: "test", Name: "rarepaths", Build: func() (*workloads.Instance, error) {
		prog, err := asm.Assemble(rarePathSource, asm.WithBase(workloads.StandardCodeBase))
		if err != nil {
			return nil, err
		}
		return &workloads.Instance{Prog: prog, Mem: mem.New(), StackTop: workloads.StandardStackTop}, nil
	}}
	inputs = append(inputs, input{name: "rarepaths", w: rare})
	// A real queue never runs dry before the program ends, nor shows an
	// empty window below a full one, so the program's run also reaches
	// the two guards through a Window that does: every fifth call sees
	// no correct path at all, and every fifth (offset by two) sees none
	// from a peek at the head for more than one record, which is how a
	// case-B pre-convergence walk fails.
	inputs = append(inputs, input{name: "rarepaths/perturbed", w: rare, perturb: func(call int, ctx *wrongpath.Context) *wrongpath.Context {
		c := *ctx
		switch call % 5 {
		case 0:
			c.Window = func(int, int) []trace.DynInst { return nil }
		case 2:
			c.Window = func(i, n int) []trace.DynInst {
				if i == 0 && n > 1 {
					return nil
				}
				return ctx.Window(i, n)
			}
		}
		return &c
	}})

	var total [numPaths]int
	for _, in := range inputs {
		cfg := Default(wrongpath.ConvResolve)
		cfg.MaxInsts = 100_000
		check := &resolvingCheck{perturb: in.perturb}
		cfg.PolicyFactory = func() wrongpath.Policy {
			check.Policy = wrongpath.New(wrongpath.ConvResolve)
			return check
		}
		if _, err := Run(cfg, in.w.MustBuild()); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if check.err != nil {
			t.Errorf("%s: %v", in.name, check.err)
		}
		t.Logf("%s: %d calls, paths %v", in.name, check.calls, check.paths)
		for i, n := range check.paths {
			total[i] += n
		}
	}
	for i, n := range total {
		if n < 20 {
			t.Errorf("%s: %d calls, want at least 20", pathNames[i], n)
		}
	}
}
