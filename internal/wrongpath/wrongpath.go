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
//     (checkpoint, execute-at redirect, stores suppressed) for the
//     mispredicted branch and reach the policy as Context.Emulated.
//
// A policy is invoked by the core when it detects a misprediction and
// returns the sequence of wrong-path instruction records the core should
// push through the pipeline until the branch resolves.
//
// Convergence detection runs in two scans, case B first: it compares
// the queued correct path's PCs with the predicted target, so it needs
// no wrong-path record. Conv and ConvResolve detect before they
// generate: the case-B distance bounds the case-A search, and the
// reconstruction walk stops at that bound until detection is done.
// ConvResolve then keeps only the part of the path that survives
// detection, so each record of its path is written once (see
// convPolicy.generate).
package wrongpath

import (
	"slices"

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
// branch resolution, see convPolicy.resolving).
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
	// Emulated is the wrong path the functional frontend emulated for
	// the misprediction being presented, with its memory-operation
	// counts (wpemul; empty otherwise). The core sets it before each
	// Begin; the records stay valid until the core has simulated them.
	Emulated trace.Path
	// Buf is where a policy writes the path it builds: an empty slice
	// with MaxLen records of capacity, a fresh one at each Begin. The
	// core owns it, and keeps a path written there until it has
	// simulated it, while the next mispredict's Begin already runs; a
	// policy that returns any other slice has it copied. Nil (a caller
	// that drives a policy by hand) makes the policy allocate.
	Buf []trace.DynInst
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
	// fetch order: written into ctx.Buf, or ctx.Emulated's records, or
	// any other slice, which need only stay valid until the next Begin.
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
		return &convPolicy{resolving: true}
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

// walker is a resumable wrong-path reconstruction walk. It walks the
// code cache, steering wrong-path control flow with read-only
// predictions (conditional directions from the predictor tables, return
// targets from a scratch RAS copy, indirect targets from the indirect
// table). The walk ends on a code-cache miss, on an unpredictable
// indirect target, or at an environment call — the same conditions
// under which the paper's implementation falls back to halting fetch —
// and otherwise pauses at the record limit its caller gives, so convres
// can generate only what detection needs and later continue the same
// walk to the full path.
type walker struct {
	ras   branch.RAS // scratch stack, re-seeded by start
	pc    uint64     // next PC to fetch
	hist  uint64     // speculative global history reached
	ended bool       // the walk ended on its own
}

// start begins a walk at pc from the speculative global history hist
// (the predictor's own at a misprediction; the history a partial
// rebuild has reached when conv's resolving walk falls back to plain
// reconstruction).
func (w *walker) start(ctx *Context, pc, hist uint64) {
	ctx.Pred.SnapshotRASInto(&w.ras)
	w.pc, w.hist, w.ended = pc, hist, false
}

// reconstruct continues the walk, appending records to buf until it
// holds limit records (at most MaxLen) or the walk ends, and adds the
// memory operations among the appended records to *memOps. buf is the
// core's Context.Buf, which already has MaxLen records of capacity, so
// each record is written where it stays, field by field (see the trace
// package). The records have no memory addresses: HasAddr is false.
func (w *walker) reconstruct(ctx *Context, buf []trace.DynInst, limit int, memOps *uint64) []trace.DynInst {
	if room := ctx.MaxLen - len(buf); room > 0 {
		buf = slices.Grow(buf, room)
	}
	limit = min(limit, ctx.MaxLen)
	pc, hist, ended := w.pc, w.hist, w.ended
	var mem uint64
	for !ended && len(buf) < limit {
		in, m, ok := ctx.Code.LookupMeta(pc)
		if !ok || m.IsEcall() {
			ended = true
			break
		}
		buf = buf[:len(buf)+1]
		di := &buf[len(buf)-1]
		*di = trace.DynInst{}
		di.PC = pc
		di.In = *in
		di.WrongPath = true
		if m.IsMem() {
			mem++
		}
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
				w.ras.Push(pc + isa.InstBytes)
			}
		case in.Op == isa.OpJalr:
			di.Taken = true
			var t uint64
			if branch.IsReturn(*in) {
				t, ok = w.ras.Pop()
			} else {
				t, ok = ctx.Pred.PredictIndirect(pc)
				if branch.IsCall(*in) {
					w.ras.Push(pc + isa.InstBytes)
				}
			}
			if !ok {
				// No target prediction: the front end cannot continue.
				ended = true
				continue
			}
			next = t
		}
		di.NextPC = next
		pc = next
	}
	w.pc, w.hist, w.ended = pc, hist, ended
	*memOps += mem
	return buf
}

// --- instrec ---

type instrecPolicy struct {
	stats Stats
	walk  walker // pooled reconstruction scratch
}

func (p *instrecPolicy) Kind() Kind    { return InstRec }
func (p *instrecPolicy) Stats() *Stats { return &p.stats }

func (p *instrecPolicy) Begin(ctx *Context, _ *trace.DynInst, predictedTarget uint64) []trace.DynInst {
	p.stats.Mispredicts++
	p.walk.start(ctx, predictedTarget, ctx.Pred.SpecHistory())
	wp := p.walk.reconstruct(ctx, ctx.Buf[:0], ctx.MaxLen, &p.stats.WPMemOps)
	p.stats.WPGenerated += uint64(len(wp))
	return wp
}

// --- conv ---

// convPolicy implements convergence exploitation. Options outside the
// paper's defaults exist for the ablation and extension experiments.
type convPolicy struct {
	stats Stats
	walk  walker // pooled reconstruction scratch

	// DisableIndependenceCheck turns off the dirty-register filter —
	// the paper's "optimism pitfall" ablation: every matched memory
	// operation copies its address, guaranteeing by-construction hits.
	DisableIndependenceCheck bool

	// resolving selects ConvResolve, the wrong-path branch-resolution
	// extension (beyond the paper's technique): after the convergence
	// point, a wrong-path branch whose operands are data-independent of
	// the pre-convergence code computes the same condition the correct
	// path computes, so the (wrong-path) core resolves it and redirects
	// wrong-path fetch — meaning the real wrong path self-repairs
	// towards the correct path's control flow, as full wrong-path
	// emulation shows. The matched walk (resolve) then follows the
	// correct path across clean branches instead of stopping at the
	// first prediction mismatch, and only diverges at branches whose
	// condition genuinely depends on pre-convergence state.
	resolving bool
}

// NewConv returns a Conv policy with ablation switches accessible.
func NewConv() *convPolicy { return &convPolicy{} }

func (p *convPolicy) Kind() Kind {
	if p.resolving {
		return ConvResolve
	}
	return Conv
}
func (p *convPolicy) Stats() *Stats { return &p.stats }

func (p *convPolicy) Begin(ctx *Context, br *trace.DynInst, predictedTarget uint64) []trace.DynInst {
	p.stats.Mispredicts++
	p.walk.start(ctx, predictedTarget, ctx.Pred.SpecHistory())
	wp := p.generate(ctx, br)
	p.stats.WPGenerated += uint64(len(wp))
	return wp
}

// generate builds the wrong path of the mispredicted br, detecting
// before it generates. Convergence is only checked for one-sided
// conditional branches with a wrong path (paper §III-C1); indirect
// mispredictions keep the plain reconstruction. The first walk stops
// after one record, the case-B scan sets the case-A reach, and the walk
// continues only through that reach. Without convergence (no match, an
// empty window at program end, or a failed pre-convergence walk) the
// same walk continues to the full path. On convergence conv walks on to
// the full path and recovers addresses along the matched region
// (match); convres keeps the pre-convergence wrong path (case A) or
// nothing (case B) and builds the rest in resolve, so no record of its
// path is written twice. The walk requests no window, so the windows
// requested, and the path built, are those of reconstructing the whole
// path before detecting.
func (p *convPolicy) generate(ctx *Context, br *trace.DynInst) []trace.DynInst {
	var memOps uint64 // of the walk so far, counted once it is kept
	wp := ctx.Buf[:0]
	if br.In.Op.IsCondBranch() {
		wp = p.walk.reconstruct(ctx, wp, 1, &memOps)
	}
	if len(wp) == 0 {
		return p.walk.reconstruct(ctx, wp, ctx.MaxLen, &p.stats.WPMemOps)
	}
	p.stats.ConvChecked++
	if w0 := ctx.Window(0, 1); len(w0) > 0 {
		distB, reach := scanB(ctx, wp[0].PC)
		wp = p.walk.reconstruct(ctx, wp, reach+1, &memOps)
		if caseA, dist, ok := p.converge(searchA(wp, w0[0].PC, reach), distB); ok {
			if !p.resolving {
				wp = p.walk.reconstruct(ctx, wp, ctx.MaxLen, &memOps)
			}
			dirty, wpIdx, cpIdx, ok := p.preConvergence(ctx, wp, caseA, dist)
			switch {
			case ok && p.resolving:
				for i := range wp[:wpIdx] {
					if wp[i].In.Op.IsMem() {
						p.stats.WPMemOps++
					}
				}
				return p.resolve(ctx, wp[:wpIdx], dirty, cpIdx)
			case ok:
				p.match(ctx, wp, dirty, wpIdx, cpIdx)
			}
		}
	}
	p.stats.WPMemOps += memOps
	return p.walk.reconstruct(ctx, wp, ctx.MaxLen, &p.stats.WPMemOps)
}

// Convergence detection (§III-C1) makes at most 2 × ROB-size
// comparisons in two scans. Case B: the wrong path's first instruction
// appears k instructions down the queued correct path; the scan needs
// only the predicted target's PC, so it runs when only the first
// wrong-path record exists. Case A: the correct path's first
// instruction appears inside the wrong path after k instructions, the
// paper's WXYZ prefix. Case A wins ties, so its search only needs the
// wrong path up to reach = min(distB, ROBSize): that is how far the
// walk goes before detection is done.

// scanB returns the case-B distance (the first k in 1..ROBSize at which
// the correct path reaches wpPC, or -1) and the case-A reach.
func scanB(ctx *Context, wpPC uint64) (distB, reach int) {
	for k := 1; k <= ctx.ROBSize; {
		w := ctx.Window(k, ctx.ROBSize+1-k)
		if len(w) == 0 {
			break
		}
		for j := range w {
			if w[j].PC == wpPC {
				return k + j, k + j
			}
		}
		k += len(w)
	}
	return -1, ctx.ROBSize
}

// searchA returns the case-A distance: the first k in 1..reach at which
// the wrong path wp reaches cpPC, or -1.
func searchA(wp []trace.DynInst, cpPC uint64, reach int) int {
	for k := 1; k < len(wp) && k <= reach; k++ {
		if wp[k].PC == cpPC {
			return k
		}
	}
	return -1
}

// converge picks the convergence point from the two scans' distances
// (a case-A distance is at most the case-B one, since the search
// stopped at it) and updates the detection statistics.
func (p *convPolicy) converge(distA, distB int) (caseA bool, dist int, ok bool) {
	switch {
	case distA >= 0:
		caseA, dist = true, distA
	case distB >= 0:
		dist = distB
	default:
		return false, 0, false
	}
	p.stats.ConvDetected++
	p.stats.ConvDistSum += uint64(dist)
	return caseA, dist, true
}

// match is conv's matched-region walk over the wrong path wp from
// wpIdx and the correct path from cpIdx, with the dirty registers of the
// pre-convergence code: it copies the addresses of memory operations
// whose base register is clean, in place, and propagates dirtiness
// through register dependences. The walk stops at the first PC mismatch
// (the reconstructed wrong path diverged — e.g. a differently-predicted
// branch inside the window). Correct-path records are scanned through
// ring windows; decode facts come from the precomputed Meta.
func (p *convPolicy) match(ctx *Context, wp []trace.DynInst, dirty regSet, wpIdx, cpIdx int) {
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

// resolve is the wrong-path branch-resolution variant of the matched
// walk: it builds the post-convergence wrong path after the kept
// prefix out, from correct-path index cpIdx on, steering clean control
// instructions along the correct path (the direction the wrong-path
// core itself would resolve them to) and falling back to
// prediction-only reconstruction at the first genuinely data-dependent
// (dirty) divergence. It writes in place past out (the first walk left
// MaxLen records of capacity), scanning the correct path through ring
// windows with decode facts from the precomputed Meta, and returns the
// whole path.
func (p *convPolicy) resolve(ctx *Context, out []trace.DynInst, dirty regSet, cpIdx int) []trace.DynInst {
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
			out = out[:len(out)+1]
			di := &out[len(out)-1]
			*di = trace.DynInst{}
			di.PC = ci.PC
			di.In = ci.In
			di.WrongPath = true
			srcDirty := false
			for s := uint8(0); s < m.NSrcs; s++ {
				if dirty.has(m.Srcs[s]) {
					srcDirty = true
					break
				}
			}
			if m.IsMem() {
				p.stats.WPMemOps++
				if ci.HasAddr && (p.DisableIndependenceCheck || !dirty.has(m.Base)) {
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
					// The first walk's records are gone, so its walker
					// restarts here.
					p.walk.start(ctx, di.NextPC, hist)
					return p.walk.reconstruct(ctx, out, ctx.MaxLen, &p.stats.WPMemOps)
				}
				if !m.IsCondBranch() {
					// Dirty indirect target: cannot follow further.
					di.Taken = true
					di.NextPC = ci.NextPC
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

func (p *wpemulPolicy) Begin(ctx *Context, _ *trace.DynInst, _ uint64) []trace.DynInst {
	p.stats.Mispredicts++
	wp := ctx.Emulated
	p.stats.WPGenerated += uint64(len(wp.Recs))
	p.stats.WPMemOps += wp.MemOps
	p.stats.WPAddrRecovered += wp.AddrKnown
	return wp.Recs
}
