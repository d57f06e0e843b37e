package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WPFlow is the interprocedural taint pass proving the paper's
// load-bearing invariant: wrong-path execution is purely speculative.
// State produced between a mispredicted branch and its resolution —
// functional wrong-path emulation results, policy-reconstructed WP
// streams, post-Checkpoint register/memory state — plus host wall-clock
// readings and recovered worker-panic values must never reach committed
// architectural state, correct-path statistics, reported aggregates, or
// correct-path observability publishes, except through the approved
// accessor / Restore APIs.
//
// The pass builds the package call graph (callgraph.go), computes
// per-function taint summaries to fixpoint (summary.go), then reports
// every flow from a source to a sink. Wall-clock-only flows are
// warnings (they bias host-side numbers, not simulated state);
// wrong-path and panic-value flows are errors. Escape hatch: a
// same-line "//wplint:flow -- <reason>" directive.
var WPFlow = &Analyzer{
	Name: "wpflow",
	Doc:  "forbid wrong-path state, wall-clock reads and recovered panic values from reaching committed state or correct-path statistics",
	Run:  runWPFlow,
}

// wpflow carries one package's analysis state.
type wpflow struct {
	pass      *Pass
	graph     *CallGraph
	summaries map[*types.Func]*Summary
}

func runWPFlow(pass *Pass) {
	if !strings.Contains(pass.Pkg.Path, "/internal/") {
		return // CLIs may aggregate wall time and host state freely
	}
	w := &wpflow{pass: pass, graph: BuildCallGraph(pass.Pkg), summaries: make(map[*types.Func]*Summary)}
	// Summaries to fixpoint: the graph is walked bottom-up, so one round
	// resolves acyclic call chains; further rounds absorb recursion.
	for round := 0; round < 10; round++ {
		changed := false
		for _, n := range w.graph.Order() {
			s := w.computeSummary(n)
			if !s.equal(w.summaries[n.Fn]) {
				w.summaries[n.Fn] = s
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, n := range w.graph.Order() {
		e := newEvaluator(w, n, nil, true)
		e.run()
		w.report(e.hits)
	}
}

// computeSummary evaluates one function body under each summary mode:
// once with sources active for result taint, then once per parameter
// with only that parameter seeded (sources off, for clean attribution)
// for param→result flows and param→sink reaches.
func (w *wpflow) computeSummary(n *CallNode) *Summary {
	params := paramObjects(w.pass.Pkg, n.Decl)
	s := &Summary{ParamFlows: make([]bool, len(params)), ParamSinks: make([]*paramSink, len(params))}
	er := newEvaluator(w, n, nil, true)
	er.run()
	s.Results = er.results
	for i, obj := range params {
		if obj == nil {
			continue
		}
		e := newEvaluator(w, n, map[types.Object]taintMask{obj: taintAll}, false)
		e.run()
		s.ParamFlows[i] = e.results != 0
		if len(e.hits) == 0 {
			continue
		}
		first := e.hits[0]
		var kinds taintMask
		for _, h := range e.hits {
			if h.pos < first.pos {
				first = h
			}
			kinds |= h.kinds
		}
		s.ParamSinks[i] = &paramSink{kinds: kinds, desc: first.desc, chain: first.chain, cpu: first.cpu}
	}
	return s
}

// report emits the collected sink hits, deduplicated and in position
// order. Wall-clock-only contamination is a warning; wrong-path or
// panic contamination is an error.
func (w *wpflow) report(hits []sinkHit) {
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].pos != hits[j].pos {
			return hits[i].pos < hits[j].pos
		}
		return hits[i].desc < hits[j].desc
	})
	var lastMsg string
	lastPos := token.NoPos
	for _, h := range hits {
		msg := fmt.Sprintf("%s value flows into %s", h.mask.describe(), h.desc)
		if len(h.chain) > 0 {
			msg += " (via " + strings.Join(h.chain, " -> ") + ")"
		}
		msg += "; only the approved accessor/Restore APIs may cross this boundary (//wplint:flow -- <reason> to accept)"
		if h.pos == lastPos && msg == lastMsg {
			continue
		}
		lastPos, lastMsg = h.pos, msg
		sev := SeverityError
		if h.mask&(taintWP|taintPanic) == 0 {
			sev = SeverityWarning // wall-clock bias, not state corruption
		}
		w.pass.Report(h.pos, Diagnostic{Message: msg, Severity: sev})
	}
}

// --- configuration tables ---------------------------------------------
//
// All entries match by package-path suffix so the tables are stable
// regardless of the module name (the fixture packages reuse them).

// pathIs reports whether pkgPath denotes the package named by suffix
// ("time" matches "time" but not "runtime").
func pathIs(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// wpflowSources are the calls that introduce taint.
var wpflowSources = []struct {
	pkgSuffix, name string
	kind            taintMask
}{
	// Functional wrong-path emulation: the instruction stream beyond a
	// mispredicted branch (paper §III, wpemul).
	{"internal/functional", "AppendWrongPath", taintWP},
	// Policy-reconstructed wrong-path streams (nowp/instrec/conv).
	{"internal/wrongpath", "Begin", taintWP},
	// Host wall-clock reads.
	{"time", "Now", taintWall},
	{"time", "Since", taintWall},
	{"time", "Until", taintWall},
	{"internal/sim", "Now", taintWall}, // the wallClock shim
}

// wpflowApproved are the sanitioned crossing points: calling one of
// these launders its arguments (and its results carry no taint).
// The simerr constructors wrap any value — including recovered panics
// and wrong-path context — into an inert typed fault; the note*
// accessors are the only legal write path for WP-split counters; the
// tagged obs publishes carry an explicit wrong-path/host label; Restore
// is the rollback that ends a speculative window.
var wpflowApproved = []struct {
	pkgSuffix, name string // name "*" approves the whole package
}{
	{"internal/simerr", "*"},
	{"internal/core", "noteWPFetched"},
	{"internal/core", "noteWPExecuted"},
	{"internal/cache", "Access"},
	{"internal/cache", "AccessData"},
	{"internal/cache", "record"},
	{"internal/functional", "Restore"},
	{"internal/functional", "Checkpoint"},
	{"internal/obs", "FetchStall"}, // carries an explicit wrongPath tag
	{"internal/obs", "Mispredict"},
	{"internal/obs", "Convergence"},
}

// wpflowSinkMethods are calls whose arguments must be untainted: writes
// to committed memory/registers and untagged (correct-path)
// observability publishes.
type sinkMethod struct {
	pkgSuffix, name string
	kinds           taintMask
	cpu             bool // checkpoint-window exemption applies
	desc            string
}

var wpflowSinkMethods = []sinkMethod{
	{"internal/functional", "SetPC", taintAll, true, "committed architectural state functional.CPU.pc (SetPC)"},
	{"internal/functional", "SetReg", taintAll, true, "committed architectural state functional.CPU.regs (SetReg)"},
	{"internal/functional", "SetFReg", taintAll, true, "committed architectural state functional.CPU.fregs (SetFReg)"},
	{"internal/mem", "Write", taintAll, true, "committed memory (mem.Memory.Write)"},
	{"internal/mem", "WriteUint64", taintAll, true, "committed memory (mem.Memory.WriteUint64)"},
	{"internal/mem", "WriteUint32", taintAll, true, "committed memory (mem.Memory.WriteUint32)"},
	{"internal/obs", "Serialize", taintAll, false, "correct-path observability publish (obs.View.Serialize)"},
}

// wpflowSinkOwners are the structs whose fields must stay untainted.
type sinkOwner struct {
	pkgSuffix, typeName string
	// fields lists the guarded fields with the taint kinds each rejects;
	// when wildcard is set, every field not listed in exempt is guarded
	// with taintAll (fields maps then override per-field kinds).
	fields   map[string]taintMask
	wildcard bool
	exempt   map[string]bool
	cpu      bool
	descFmt  string
}

var wpflowSinkOwners = []sinkOwner{
	{
		pkgSuffix: "internal/core", typeName: "Stats",
		fields: map[string]taintMask{
			"Instructions": taintAll, "Cycles": taintAll,
			"CondBranches": taintAll, "CondMispredicted": taintAll,
			"IndirectJumps": taintAll, "IndirectMispredicted": taintAll,
			"Returns": taintAll, "ReturnMispredicted": taintAll,
			"Mispredicts": taintAll, "LoadForwards": taintAll,
			"Serializations": taintAll,
			// The WP-split counters (WPFetched &c.) are statpath's
			// domain: direct stores are banned outright there.
		},
		descFmt: "correct-path statistic core.Stats.%s",
	},
	{
		pkgSuffix: "internal/sim", typeName: "Result",
		wildcard: true,
		exempt:   map[string]bool{"Err": true},
		fields: map[string]taintMask{
			// Wall is the one aggregate that *is* a wall-clock reading.
			"Wall": taintWP | taintPanic,
		},
		descFmt: "reported aggregate sim.Result.%s",
	},
	{
		pkgSuffix: "internal/functional", typeName: "CPU",
		fields: map[string]taintMask{
			"regs": taintAll, "fregs": taintAll, "pc": taintAll,
			"instret": taintAll, "halted": taintAll, "exitCode": taintAll,
			"seq": taintAll, "Output": taintAll,
		},
		cpu:     true,
		descFmt: "committed architectural state functional.CPU.%s",
	},
}

// sourceOf reports the taint kind a call to fn introduces.
func (w *wpflow) sourceOf(fn *types.Func) (taintMask, bool) {
	if fn.Pkg() == nil {
		return 0, false
	}
	for _, s := range wpflowSources {
		if fn.Name() == s.name && pathIs(fn.Pkg().Path(), s.pkgSuffix) {
			return s.kind, true
		}
	}
	return 0, false
}

// approved reports whether fn is a sanctioned crossing point.
func (w *wpflow) approved(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	for _, a := range wpflowApproved {
		if (a.name == "*" || a.name == fn.Name()) && pathIs(fn.Pkg().Path(), a.pkgSuffix) {
			return true
		}
	}
	return false
}

// sinkMethodOf looks fn up in the sink-method table.
func (w *wpflow) sinkMethodOf(fn *types.Func) (sinkMethod, bool) {
	if fn.Pkg() == nil {
		return sinkMethod{}, false
	}
	for _, s := range wpflowSinkMethods {
		if fn.Name() == s.name && pathIs(fn.Pkg().Path(), s.pkgSuffix) {
			return s, true
		}
	}
	return sinkMethod{}, false
}

// sinkFieldOf looks up a guarded struct field. owner is the full
// "pkgpath.TypeName" key selectedField produces.
func (w *wpflow) sinkFieldOf(owner, field string) (kinds taintMask, cpu bool, desc string, ok bool) {
	dot := strings.LastIndex(owner, ".")
	if dot < 0 {
		return 0, false, "", false
	}
	pkgPath, typeName := owner[:dot], owner[dot+1:]
	for _, o := range wpflowSinkOwners {
		if o.typeName != typeName || !pathIs(pkgPath, o.pkgSuffix) {
			continue
		}
		if k, listed := o.fields[field]; listed {
			return k, o.cpu, fmt.Sprintf(o.descFmt, field), true
		}
		if o.wildcard && !o.exempt[field] {
			return taintAll, o.cpu, fmt.Sprintf(o.descFmt, field), true
		}
		return 0, false, "", false
	}
	return 0, false, "", false
}

// --- evaluator sink checks --------------------------------------------

// cpuExempt reports whether a committed-CPU-state sink at pos is
// sanctioned: inside a checkpoint/restore window, or in the rollback
// machinery itself.
func (e *evaluator) cpuExempt(pos token.Pos) bool {
	switch e.node.Fn.Name() {
	case "Restore", "Checkpoint":
		return true
	}
	return e.inWindow(pos)
}

// checkFieldStore reports a tainted store into a guarded struct field.
func (e *evaluator) checkFieldStore(sel *ast.SelectorExpr, m taintMask, pos token.Pos) {
	owner, field, ok := selectedField(e.w.pass, sel)
	if !ok {
		return
	}
	kinds, cpu, desc, ok := e.w.sinkFieldOf(owner, field)
	if !ok {
		return
	}
	if cpu && e.cpuExempt(pos) {
		return
	}
	if v := m & kinds; v != 0 {
		e.hits = append(e.hits, sinkHit{pos: pos, kinds: kinds, mask: v, desc: desc, cpu: cpu})
	}
}

// checkCompositeLit reports tainted initializers of guarded fields in a
// struct literal (e.g. building a sim.Result).
func (e *evaluator) checkCompositeLit(lit *ast.CompositeLit) {
	info := e.w.pass.Pkg.Info
	tv, ok := info.Types[lit]
	if !ok {
		return
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	owner := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		var field string
		value := elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			id, isID := kv.Key.(*ast.Ident)
			if !isID {
				continue
			}
			field, value = id.Name, kv.Value
		} else if i < st.NumFields() {
			field = st.Field(i).Name()
		} else {
			continue
		}
		kinds, cpu, desc, ok := e.w.sinkFieldOf(owner, field)
		if !ok || (cpu && e.cpuExempt(value.Pos())) {
			continue
		}
		if v := e.exprTaint(value) & kinds; v != 0 {
			e.hits = append(e.hits, sinkHit{pos: value.Pos(), kinds: kinds, mask: v, desc: desc, cpu: cpu})
		}
	}
}

// checkCallArgs reports tainted arguments reaching a sink: directly
// (sink-method table) or transitively (a same-package callee whose
// summary says the parameter reaches a sink).
func (e *evaluator) checkCallArgs(call *ast.CallExpr) {
	info := e.w.pass.Pkg.Info
	callee := StaticCallee(info, call)
	if callee == nil || e.w.approved(callee) {
		return
	}
	if sm, ok := e.w.sinkMethodOf(callee); ok {
		if sm.cpu && e.cpuExempt(call.Pos()) {
			return
		}
		for _, a := range call.Args {
			if v := e.exprTaint(a) & sm.kinds; v != 0 {
				e.hits = append(e.hits, sinkHit{pos: a.Pos(), kinds: sm.kinds, mask: v, desc: sm.desc, cpu: sm.cpu})
				return
			}
		}
		return
	}
	s, ok := e.w.summaries[callee]
	if !ok {
		return
	}
	args := e.callArgExprs(call, callee)
	for i, a := range args {
		pi := paramIndexOf(callee, i, len(args))
		if pi >= len(s.ParamSinks) || s.ParamSinks[pi] == nil {
			continue
		}
		ps := s.ParamSinks[pi]
		if ps.cpu && e.cpuExempt(call.Pos()) {
			continue
		}
		if v := e.exprTaint(a) & ps.kinds; v != 0 {
			chain := append([]string{callee.Name()}, ps.chain...)
			e.hits = append(e.hits, sinkHit{pos: a.Pos(), kinds: ps.kinds, mask: v, desc: ps.desc, chain: chain, cpu: ps.cpu})
		}
	}
}
