package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Determinism enforces that simulation code (non-test packages under
// internal/) is bit-for-bit reproducible:
//
//   - no wall-clock reads (time.Now/Since/Until), no global math/rand
//     state, no environment reads (os.Getenv & friends) — except in an
//     allowlisted shim marked with //wplint:allow determinism;
//   - no `range` over a map whose body has effects that depend on the
//     iteration order. Order-independent idioms stay legal: writes
//     indexed by the range key, commutative integer aggregation into
//     locals, collecting keys into a slice that is subsequently
//     sorted, and constant flag assignments.
//
// Map iteration order is randomized per process in Go, so any
// order-dependent effect inside such a loop leaks nondeterminism into
// statistics, traces or replay — exactly what decoupled simulation's
// bit-identical guarantee forbids.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-time, global randomness, env reads and map-iteration-order effects in simulation code",
	Run:  runDeterminism,
}

// bannedCalls maps package path → function names whose results differ
// between runs. A nil set bans every package-level function (math/rand
// global state), except explicit constructors that take a caller seed.
var bannedCalls = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"os":           {"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true},
	"math/rand":    nil,
	"math/rand/v2": nil,
}

// randConstructors are the math/rand names that are deterministic when
// the caller supplies the seed/source, so they stay allowed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	if !strings.Contains(pass.Pkg.Path, "/internal/") {
		return // CLIs may read the clock and environment
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkBannedSelector(pass, n)
			case *ast.RangeStmt:
				if t := info.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						checkMapRange(pass, f, n)
					}
				}
			}
			return true
		})
	}
}

// checkBannedSelector flags uses of nondeterministic package-level
// functions.
func checkBannedSelector(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.Pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	path := pkgName.Imported().Path()
	names, banned := bannedCalls[path]
	if !banned {
		return
	}
	if names == nil { // math/rand: global state
		if _, isFunc := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); !isFunc || randConstructors[sel.Sel.Name] {
			return
		}
	} else if !names[sel.Sel.Name] {
		return
	}
	pass.Reportf(sel.Pos(), "nondeterministic call %s.%s in simulation code; take the value as an input or confine the call to one shim marked //wplint:allow", path, sel.Sel.Name)
}

// mapRange carries the per-loop state of the order-dependence check.
type mapRange struct {
	pass *Pass
	file *ast.File
	rs   *ast.RangeStmt
	key  types.Object // range key variable (nil for `for range m`)
	val  types.Object // range value variable
}

func checkMapRange(pass *Pass, f *ast.File, rs *ast.RangeStmt) {
	mr := &mapRange{pass: pass, file: f, rs: rs}
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		mr.key = pass.Pkg.Info.ObjectOf(id)
	}
	if id, ok := rs.Value.(*ast.Ident); ok && id.Name != "_" {
		mr.val = pass.Pkg.Info.ObjectOf(id)
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			mr.checkCall(n)
		case *ast.AssignStmt:
			mr.checkAssign(n)
		case *ast.IncDecStmt:
			mr.checkWrite(n.X, n.Pos(), token.INC)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration: delivery order depends on map order")
		case *ast.ReturnStmt:
			mr.checkReturn(n)
		}
		return true
	})
}

// local reports whether the object is declared within the range
// statement (loop-local temporaries cannot leak iteration order).
func (mr *mapRange) local(obj types.Object) bool {
	return obj != nil && mr.rs.Pos() <= obj.Pos() && obj.Pos() <= mr.rs.End()
}

func (mr *mapRange) checkCall(call *ast.CallExpr) {
	info := mr.pass.Pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return // append/len/cap/delete/...: handled at the assignment
		}
	}
	mr.pass.Reportf(call.Pos(), "function call inside map iteration: its effects occur in map order; iterate a sorted key slice instead")
}

func (mr *mapRange) checkAssign(as *ast.AssignStmt) {
	if as.Tok == token.DEFINE {
		return // new loop-local variables
	}
	// Collect idiom: s = append(s, ...) into an outer slice is fine if
	// the function sorts s after the loop.
	if as.Tok == token.ASSIGN && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
		if lhs, ok := as.Lhs[0].(*ast.Ident); ok {
			if call, ok := as.Rhs[0].(*ast.CallExpr); ok {
				if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" {
					if arg0, ok := call.Args[0].(*ast.Ident); ok &&
						mr.pass.Pkg.Info.ObjectOf(arg0) == mr.pass.Pkg.Info.ObjectOf(lhs) {
						obj := mr.pass.Pkg.Info.ObjectOf(lhs)
						if mr.local(obj) || mr.sortedAfterLoop(obj) {
							return
						}
						mr.pass.Reportf(as.Pos(), "appends to %s in map-iteration order and never sorts it; sort after the loop or iterate sorted keys", lhs.Name)
						return
					}
				}
			}
		}
	}
	for _, lhs := range as.Lhs {
		mr.checkWrite(lhs, as.Pos(), as.Tok)
	}
	// Plain `=` of a non-constant to an outer variable: last-writer-wins
	// in map order.
	if as.Tok == token.ASSIGN {
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := mr.pass.Pkg.Info.ObjectOf(id)
			if mr.local(obj) {
				continue
			}
			if i < len(as.Rhs) {
				if tv, ok := mr.pass.Pkg.Info.Types[as.Rhs[i]]; ok && tv.Value != nil {
					continue // constant flag assignment: order-independent
				}
			}
			mr.pass.Reportf(as.Pos(), "assigns a loop-dependent value to %s: the survivor depends on map order", id.Name)
		}
	}
}

// checkWrite validates one written lvalue inside the loop body.
func (mr *mapRange) checkWrite(lhs ast.Expr, pos token.Pos, tok token.Token) {
	info := mr.pass.Pkg.Info
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" || mr.local(info.ObjectOf(lhs)) {
			return
		}
		switch tok {
		case token.INC, token.DEC, token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
			token.AND_ASSIGN, token.OR_ASSIGN, token.XOR_ASSIGN:
			// Commutative accumulation is order-independent for
			// integers but not for floats (rounding) or strings.
			if t, ok := info.TypeOf(lhs).Underlying().(*types.Basic); ok &&
				t.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0 {
				mr.pass.Reportf(pos, "accumulates into %s (%s) in map order: floating-point/string accumulation is order-dependent", lhs.Name, info.TypeOf(lhs))
			}
			return
		case token.ASSIGN:
			return // handled by checkAssign's constant test
		default:
			mr.pass.Reportf(pos, "writes %s in map-iteration order", lhs.Name)
		}
	case *ast.IndexExpr:
		// X[k] = ... where k is the range key: each key is visited
		// exactly once, so the effect is order-independent.
		if id, ok := lhs.Index.(*ast.Ident); ok {
			obj := info.ObjectOf(id)
			if obj != nil && obj == mr.key {
				return
			}
			if obj != nil && obj == mr.val {
				mr.pass.Reportf(pos, "indexes the write by the range *value* %s: values can collide, making the result map-order-dependent", id.Name)
				return
			}
		}
		if base, ok := lhs.X.(*ast.Ident); ok && mr.local(info.ObjectOf(base)) {
			return
		}
		mr.pass.Reportf(pos, "writes an element of an outer container in map-iteration order")
	case *ast.SelectorExpr:
		if base, ok := lhs.X.(*ast.Ident); ok && mr.local(info.ObjectOf(base)) {
			return
		}
		mr.pass.Reportf(pos, "writes field %s in map-iteration order", lhs.Sel.Name)
	case *ast.StarExpr:
		mr.pass.Reportf(pos, "writes through a pointer in map-iteration order")
	}
}

// checkReturn flags early returns that surface a map-order-dependent
// pick (returning constants — found/ok patterns — is fine).
func (mr *mapRange) checkReturn(ret *ast.ReturnStmt) {
	for _, res := range ret.Results {
		tv, ok := mr.pass.Pkg.Info.Types[res]
		if ok && tv.Value != nil {
			continue
		}
		if ok && tv.IsNil() {
			continue
		}
		mr.pass.Reportf(ret.Pos(), "returns a value chosen by map-iteration order")
		return
	}
}

// sortedAfterLoop reports whether obj is passed to a sort/slices call
// after the range loop within the same function.
func (mr *mapRange) sortedAfterLoop(obj types.Object) bool {
	fd := enclosingFunc(mr.file, mr.rs.Pos())
	if fd == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < mr.rs.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := mr.pass.Pkg.Info.Uses[pkgID].(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && mr.pass.Pkg.Info.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
