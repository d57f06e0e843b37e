// Package wrongpath implements the paper's four wrong-path modeling
// policies for functional-first simulation:
//
//   - NoWP: the functional-first default — no wrong-path modeling;
//     fetch halts on a mispredicted branch until it resolves.
//   - InstRec (§III-A): reconstruct wrong-path *instructions* from the
//     code cache and simulate their I-cache, predictor and
//     functional-unit effects; data addresses are unknown.
//   - Conv (§III-C, the paper's novel technique): InstRec plus
//     convergence detection between the wrong and correct path,
//     an independence check through register dependences, and memory
//     address recovery from the future correct-path instructions that
//     the run-ahead functional simulator has already queued.
//   - WPEmul (§III-B): full functional wrong-path emulation — the
//     wrong-path records were produced by the functional simulator
//     (checkpoint, execute-at redirect, stores suppressed) and attached
//     to the mispredicted branch.
//
// A policy is invoked by the core when it detects a misprediction and
// returns the sequence of wrong-path instruction records the core should
// push through the pipeline until the branch resolves.
package wrongpath

import (
	"repro/internal/branch"
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// Kind enumerates the four policies.
type Kind int

// Policy kinds, ordered from cheapest to most accurate. The paper's
// four simulator variants are NoWP, InstRec, Conv and WPEmul;
// ConvResolve is this reproduction's extension of Conv (wrong-path
// branch resolution, see convPolicy.ResolveWPBranches).
const (
	NoWP Kind = iota
	InstRec
	Conv
	ConvResolve
	WPEmul
)

// kinds is the canonical ordering of every technique, cheapest first
// and the wpemul reference last. The //wplint:exhaustive directive
// makes the exhaustive analyzer verify the list names every declared
// Kind, so a newly added policy cannot be left out of Kinds() (and
// thereby out of the -wp all sweeps, the experiment drivers and the
// CLI help).
var kinds = [...]Kind{ //wplint:exhaustive
	NoWP, InstRec, Conv, ConvResolve, WPEmul,
}

// Kinds returns all techniques in canonical report order: NoWP first,
// then the reconstruction-based techniques, WPEmul (the reference)
// last. The slice is a fresh copy; callers may filter or reorder it.
func Kinds() []Kind {
	out := make([]Kind, len(kinds))
	copy(out, kinds[:])
	return out
}

// Names returns the parseable short name of every technique, in
// Kinds() order (for CLI flag help and -wp parsing errors).
func Names() []string {
	out := make([]string, 0, len(kinds))
	for _, k := range kinds {
		out = append(out, k.String())
	}
	return out
}

// String returns the paper's short name for the policy.
func (k Kind) String() string {
	switch k {
	case NoWP:
		return "nowp"
	case InstRec:
		return "instrec"
	case Conv:
		return "conv"
	case ConvResolve:
		return "convres"
	case WPEmul:
		return "wpemul"
	}
	return "unknown"
}

// ParseKind converts a policy name (a Kind's String) to its Kind.
func ParseKind(s string) (Kind, bool) {
	for _, k := range kinds {
		if k.String() == s {
			return k, true
		}
	}
	return NoWP, false
}

// Context is what the core exposes to a policy at misprediction time.
type Context struct {
	// Code is the code cache of past decoded instructions.
	Code *codecache.Cache
	// Pred is the core's branch predictor; policies may read predictions
	// but must not update state (wrong-path execution does not train the
	// predictor in this model).
	Pred *branch.Unit
	// Window returns a read-only contiguous view of the future
	// correct-path instructions starting at i (0 = the instruction the
	// core will consume next) — at most max records, possibly fewer
	// (callers walk on by re-requesting at i+len(window)); empty past
	// program end or past the queue's lookahead. Convergence walks scan
	// the queued records in place through it.
	Window func(i, max int) []trace.DynInst
	// ROBSize bounds the convergence search (the paper: at most
	// 2 × ROB-size comparisons).
	ROBSize int
	// MaxLen caps the reconstructed wrong path: ROB size plus the
	// front-end buffers (§III-B).
	MaxLen int
}

// Stats aggregates policy-level counters; the conv fields feed the
// paper's Table III.
type Stats struct {
	// Mispredicts counts mispredictions presented to the policy.
	Mispredicts uint64
	// WPGenerated counts wrong-path instruction records returned.
	WPGenerated uint64

	// ConvChecked counts mispredictions where the convergence check ran
	// (one-sided conditional branches with a reconstructable wrong path).
	ConvChecked uint64
	// ConvDetected counts mispredictions where convergence was found.
	ConvDetected uint64
	// ConvDistSum accumulates the pre-convergence path length (the
	// paper's "conv dist" numerator).
	ConvDistSum uint64
	// ConvMatchLenSum accumulates the length of the matched
	// (PC-identical) region walked after each detected convergence.
	ConvMatchLenSum uint64
	// WPMemOps counts memory operations on generated wrong paths.
	WPMemOps uint64
	// WPAddrRecovered counts wrong-path memory operations whose address
	// was recovered (the paper's "addr recover" numerator).
	WPAddrRecovered uint64
}

// ConvFrac returns the fraction of checked branch misses with detected
// convergence.
func (s *Stats) ConvFrac() float64 {
	if s.ConvChecked == 0 {
		return 0
	}
	return float64(s.ConvDetected) / float64(s.ConvChecked)
}

// ConvDist returns the average instruction distance to the convergence
// point.
func (s *Stats) ConvDist() float64 {
	if s.ConvDetected == 0 {
		return 0
	}
	return float64(s.ConvDistSum) / float64(s.ConvDetected)
}

// AddrRecoverFrac returns the fraction of wrong-path memory operations
// with recovered addresses.
func (s *Stats) AddrRecoverFrac() float64 {
	if s.WPMemOps == 0 {
		return 0
	}
	return float64(s.WPAddrRecovered) / float64(s.WPMemOps)
}

// Policy produces the wrong-path instruction stream for a misprediction.
type Policy interface {
	Kind() Kind
	// Begin is called when the core detects that the control instruction
	// br was mispredicted and the front end would fetch from
	// predictedTarget. It returns the wrong-path records to simulate, in
	// fetch order. The returned slice is valid until the next Begin.
	Begin(ctx *Context, br *trace.DynInst, predictedTarget uint64) []trace.DynInst
	Stats() *Stats
}

// New returns a fresh policy of the given kind.
func New(k Kind) Policy {
	switch k {
	case NoWP:
		return &nowpPolicy{}
	case InstRec:
		return &instrecPolicy{}
	case Conv:
		return &convPolicy{}
	case ConvResolve:
		return &convPolicy{kind: ConvResolve, ResolveWPBranches: true}
	case WPEmul:
		return &wpemulPolicy{}
	}
	panic("wrongpath: unknown kind")
}

// --- nowp ---

type nowpPolicy struct{ stats Stats }

func (p *nowpPolicy) Kind() Kind    { return NoWP }
func (p *nowpPolicy) Stats() *Stats { return &p.stats }

func (p *nowpPolicy) Begin(_ *Context, _ *trace.DynInst, _ uint64) []trace.DynInst {
	p.stats.Mispredicts++
	return nil
}

// --- shared reconstruction walk (instrec and conv) ---

// reconstruct walks the code cache from startPC, steering wrong-path
// control flow with read-only predictions (conditional directions from
// the predictor tables, return targets from a scratch RAS copy,
// indirect targets from the indirect table). The walk stops at the
// instruction-count cap, on a code-cache miss, on an unpredictable
// indirect target, or at an environment call — the same conditions
// under which the paper's implementation falls back to halting fetch.
//
// The walk starts from the speculative global history hist (the
// predictor's own at a misprediction; the history a partial rebuild has
// reached when conv's resolving walk falls back to plain
// reconstruction). The records are appended to buf (reused across
// calls) and have no memory addresses: HasAddr is false. ras is the
// caller's pooled scratch stack, re-seeded from the predictor on entry.
func reconstruct(ctx *Context, startPC, hist uint64, buf []trace.DynInst, ras *branch.RAS) []trace.DynInst {
	ctx.Pred.SnapshotRASInto(ras)
	pc := startPC
	for len(buf) < ctx.MaxLen {
		in, m, ok := ctx.Code.LookupMeta(pc)
		if !ok || m.IsEcall() {
			break
		}
		di := trace.DynInst{PC: pc, In: *in, WrongPath: true}
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
				ras.Push(pc + isa.InstBytes)
			}
		case in.Op == isa.OpJalr:
			di.Taken = true
			var t uint64
			if branch.IsReturn(*in) {
				t, ok = ras.Pop()
			} else {
				t, ok = ctx.Pred.PredictIndirect(pc)
				if branch.IsCall(*in) {
					ras.Push(pc + isa.InstBytes)
				}
			}
			if !ok {
				// No target prediction: the front end cannot continue.
				return append(buf, di)
			}
			next = t
		}
		di.NextPC = next
		buf = append(buf, di)
		pc = next
	}
	return buf
}

// --- instrec ---

type instrecPolicy struct {
	stats Stats
	buf   []trace.DynInst
	ras   branch.RAS // pooled reconstruction scratch
}

func (p *instrecPolicy) Kind() Kind    { return InstRec }
func (p *instrecPolicy) Stats() *Stats { return &p.stats }

func (p *instrecPolicy) Begin(ctx *Context, _ *trace.DynInst, predictedTarget uint64) []trace.DynInst {
	p.stats.Mispredicts++
	p.buf = reconstruct(ctx, predictedTarget, ctx.Pred.SpecHistory(), p.buf[:0], &p.ras)
	p.stats.WPGenerated += uint64(len(p.buf))
	for i := range p.buf {
		if p.buf[i].In.Op.IsMem() {
			p.stats.WPMemOps++
		}
	}
	return p.buf
}

// --- conv ---

// convPolicy implements convergence exploitation. Options outside the
// paper's defaults exist for the ablation and extension experiments.
type convPolicy struct {
	stats Stats
	buf   []trace.DynInst
	ras   branch.RAS // pooled reconstruction scratch
	// kind is Conv or ConvResolve (zero value: Conv).
	kind Kind

	// DisableIndependenceCheck turns off the dirty-register filter —
	// the paper's "optimism pitfall" ablation: every matched memory
	// operation copies its address, guaranteeing by-construction hits.
	DisableIndependenceCheck bool

	// ResolveWPBranches enables the wrong-path branch-resolution
	// extension (beyond the paper's technique): after the convergence
	// point, a wrong-path branch whose operands are data-independent of
	// the pre-convergence code computes the same condition the correct
	// path computes, so the (wrong-path) core resolves it and redirects
	// wrong-path fetch — meaning the real wrong path self-repairs
	// towards the correct path's control flow, as full wrong-path
	// emulation shows. With this flag the matched walk follows the
	// correct path across clean branches instead of stopping at the
	// first prediction mismatch, and only diverges at branches whose
	// condition genuinely depends on pre-convergence state.
	ResolveWPBranches bool
}

// NewConv returns a Conv policy with ablation switches accessible.
func NewConv() *convPolicy { return &convPolicy{} }

func (p *convPolicy) Kind() Kind {
	if p.kind == ConvResolve || p.ResolveWPBranches {
		return ConvResolve
	}
	return Conv
}
func (p *convPolicy) Stats() *Stats { return &p.stats }

func (p *convPolicy) Begin(ctx *Context, br *trace.DynInst, predictedTarget uint64) []trace.DynInst {
	p.stats.Mispredicts++
	p.buf = reconstruct(ctx, predictedTarget, ctx.Pred.SpecHistory(), p.buf[:0], &p.ras)
	wp := p.buf
	// Convergence is only checked for one-sided conditional branches
	// (paper §III-C1); indirect mispredictions keep the plain
	// reconstruction.
	if len(wp) > 0 && br.In.Op.IsCondBranch() {
		p.stats.ConvChecked++
		if p.ResolveWPBranches {
			wp = p.recoverResolving(ctx, wp)
			p.buf = wp
		} else {
			p.recoverAddresses(ctx, wp)
		}
	}
	for i := range wp {
		if wp[i].In.Op.IsMem() {
			p.stats.WPMemOps++
		}
	}
	p.stats.WPGenerated += uint64(len(wp))
	return wp
}

// detect finds the one-sided convergence point between the predicted
// wrong path wp and the queued correct path. It returns the case-A
// flag (the correct path's first instruction is found inside the wrong
// path), the pre-convergence distance, and whether convergence was
// found at all, updating the detection statistics.
func (p *convPolicy) detect(ctx *Context, wp []trace.DynInst) (caseA bool, dist int, ok bool) {
	w0 := ctx.Window(0, 1)
	if len(w0) == 0 {
		return false, 0, false // program end: skip the check
	}
	cp0PC := w0[0].PC
	distA := -1
	for k := 1; k < len(wp) && k <= ctx.ROBSize; k++ {
		if wp[k].PC == cp0PC {
			distA = k
			break
		}
	}
	distB := -1
	wp0PC := wp[0].PC
scanB:
	for k := 1; k <= ctx.ROBSize; {
		w := ctx.Window(k, ctx.ROBSize+1-k)
		if len(w) == 0 {
			break
		}
		for j := range w {
			if w[j].PC == wp0PC {
				distB = k + j
				break scanB
			}
		}
		k += len(w)
	}
	caseA = distA >= 0 && (distB < 0 || distA <= distB)
	switch {
	case caseA:
		dist = distA
	case distB >= 0:
		dist = distB
	default:
		return false, 0, false
	}
	p.stats.ConvDetected++
	p.stats.ConvDistSum += uint64(dist)
	return caseA, dist, true
}

// recoverAddresses performs convergence detection (§III-C1: at most
// 2 × ROB-size comparisons — case A: the correct path's first
// instruction appears inside the wrong path after k instructions, the
// paper's WXYZ prefix; case B: the wrong path's first instruction
// appears k instructions down the correct path) and address recovery on
// the reconstructed wrong path wp, in place.
func (p *convPolicy) recoverAddresses(ctx *Context, wp []trace.DynInst) {
	caseA, dist, ok := p.detect(ctx, wp)
	if !ok {
		return
	}
	dirty, wpIdx, cpIdx, ok := p.preConvergence(ctx, wp, caseA, dist)
	if !ok {
		return
	}

	// Matched-region walk: copy addresses of memory operations whose
	// base register is clean; propagate dirtiness through register
	// dependences. The walk stops at the first PC mismatch (the
	// reconstructed wrong path diverged — e.g. a differently-predicted
	// branch inside the window). Correct-path records are scanned
	// through ring windows; decode facts come from the precomputed Meta.
walk:
	for wpIdx < len(wp) {
		w := ctx.Window(cpIdx, len(wp)-wpIdx)
		if len(w) == 0 {
			break
		}
		for j := range w {
			ci := &w[j]
			if ci.PC != wp[wpIdx].PC {
				break walk
			}
			m := ctx.Code.MetaFor(wp[wpIdx].PC, &wp[wpIdx].In)
			srcDirty := false
			for s := uint8(0); s < m.NSrcs; s++ {
				if dirty.has(m.Srcs[s]) {
					srcDirty = true
					break
				}
			}
			if m.IsMem() && ci.HasAddr {
				if p.DisableIndependenceCheck || !dirty.has(m.Base) {
					wp[wpIdx].MemAddr = ci.MemAddr
					wp[wpIdx].HasAddr = true
					wp[wpIdx].Recovered = true
					p.stats.WPAddrRecovered++
				}
			}
			if m.HasDst {
				if srcDirty {
					dirty.add(m.Dst)
				} else {
					dirty.remove(m.Dst)
				}
			}
			wpIdx++
			cpIdx++
			p.stats.ConvMatchLenSum++
			if wpIdx >= len(wp) {
				break walk
			}
		}
	}
}

// preConvergence collects the dirty registers written on the
// non-converging prefix (§III-C2: values produced before the
// convergence point may differ between the two paths) and returns the
// walk start indices into the wrong path and the correct-path peek
// window.
func (p *convPolicy) preConvergence(ctx *Context, wp []trace.DynInst, caseA bool, dist int) (dirty regSet, wpIdx, cpIdx int, ok bool) {
	if caseA {
		for i := 0; i < dist; i++ {
			if rd, ok := wp[i].In.Dest(); ok {
				dirty.add(rd)
			}
		}
		return dirty, dist, 0, true
	}
	for i := 0; i < dist; {
		w := ctx.Window(i, dist-i)
		if len(w) == 0 {
			return 0, 0, 0, false
		}
		for j := range w {
			if rd, ok := w[j].In.Dest(); ok {
				dirty.add(rd)
			}
		}
		i += len(w)
	}
	return dirty, 0, dist, true
}

// recoverResolving is the wrong-path branch-resolution variant of the
// matched walk: it rebuilds the post-convergence wrong path, steering
// clean control instructions along the correct path (the direction the
// wrong-path core itself would resolve them to) and falling back to
// prediction-only reconstruction at the first genuinely data-dependent
// (dirty) divergence. It returns the rebuilt wrong path.
func (p *convPolicy) recoverResolving(ctx *Context, wp []trace.DynInst) []trace.DynInst {
	caseA, dist, ok := p.detect(ctx, wp)
	if !ok {
		return wp
	}
	dirty, wpIdx, cpIdx, ok := p.preConvergence(ctx, wp, caseA, dist)
	if !ok {
		return wp
	}
	// Keep the pre-convergence wrong-path prefix, rebuild the rest,
	// scanning the correct path through ring windows with decode facts
	// from the precomputed Meta.
	out := wp[:wpIdx]
	hist := ctx.Pred.SpecHistory()
outer:
	for len(out) < ctx.MaxLen {
		w := ctx.Window(cpIdx, ctx.MaxLen-len(out))
		if len(w) == 0 {
			break
		}
		for j := range w {
			ci := &w[j]
			m := ctx.Code.MetaFor(ci.PC, &ci.In)
			if m.IsEcall() {
				break outer
			}
			di := trace.DynInst{PC: ci.PC, In: ci.In, WrongPath: true}
			srcDirty := false
			for s := uint8(0); s < m.NSrcs; s++ {
				if dirty.has(m.Srcs[s]) {
					srcDirty = true
					break
				}
			}
			if m.IsMem() && ci.HasAddr {
				if p.DisableIndependenceCheck || !dirty.has(m.Base) {
					di.MemAddr = ci.MemAddr
					di.HasAddr = true
					di.Recovered = true
					p.stats.WPAddrRecovered++
				}
			}
			if m.HasDst {
				if srcDirty {
					dirty.add(m.Dst)
				} else {
					dirty.remove(m.Dst)
				}
			}
			p.stats.ConvMatchLenSum++
			if m.IsControl() && srcDirty {
				// A branch whose condition depends on pre-convergence state:
				// the wrong path genuinely decides on its own (different)
				// data. Follow the prediction; if it disagrees with the
				// correct path, the paths diverge for good and the walk
				// degrades to prediction-only reconstruction.
				var predTaken bool
				predTaken, hist = ctx.Pred.PredictCondSpec(di.PC, hist)
				if m.IsCondBranch() && predTaken != ci.Taken {
					di.Taken = predTaken
					di.NextPC = di.PC + isa.InstBytes
					if predTaken {
						di.NextPC = ci.In.Target
					}
					out = append(out, di)
					// p.ras is free here: the initial walk has finished.
					return reconstruct(ctx, di.NextPC, hist, out, &p.ras)
				}
				if !m.IsCondBranch() {
					// Dirty indirect target: cannot follow further.
					di.Taken = true
					di.NextPC = ci.NextPC
					out = append(out, di)
					return out
				}
			}
			// Clean control (or clean fall-through): the wrong-path core
			// resolves it to the same outcome as the correct path.
			if m.IsCondBranch() {
				_, hist = ctx.Pred.PredictCondSpec(di.PC, hist)
			}
			di.Taken = ci.Taken
			di.NextPC = ci.NextPC
			out = append(out, di)
			cpIdx++
			if len(out) >= ctx.MaxLen {
				break outer
			}
		}
	}
	return out
}

// MatchLen returns the average matched-region length per detected
// convergence.
func (s *Stats) MatchLen() float64 {
	if s.ConvDetected == 0 {
		return 0
	}
	return float64(s.ConvMatchLenSum) / float64(s.ConvDetected)
}

// regSet is a bitmask over the unified 64-register space.
type regSet uint64

func (s *regSet) add(r isa.Reg)     { *s |= 1 << uint(r) }
func (s *regSet) remove(r isa.Reg)  { *s &^= 1 << uint(r) }
func (s regSet) has(r isa.Reg) bool { return r.Valid() && s&(1<<uint(r)) != 0 }

// --- wpemul ---

type wpemulPolicy struct{ stats Stats }

func (p *wpemulPolicy) Kind() Kind    { return WPEmul }
func (p *wpemulPolicy) Stats() *Stats { return &p.stats }

func (p *wpemulPolicy) Begin(_ *Context, br *trace.DynInst, _ uint64) []trace.DynInst {
	p.stats.Mispredicts++
	p.stats.WPGenerated += uint64(len(br.WP))
	for i := range br.WP {
		if br.WP[i].In.Op.IsMem() {
			p.stats.WPMemOps++
			if br.WP[i].HasAddr {
				p.stats.WPAddrRecovered++
			}
		}
	}
	return br.WP
}
