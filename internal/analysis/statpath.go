package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// StatPath enforces that the wrong-path-split statistic counters — the
// numbers behind the paper's tables — are only incremented through
// their approved accessor functions. Centralizing the increments keeps
// the correct/wrong attribution in one audited place; a stray `++` on
// a split counter elsewhere silently corrupts the split.
//
// It also guards the observability layer's publication discipline:
// outside internal/obs, metric handles (obs.Counter/Gauge) may not be
// constructed directly — a hand-rolled handle never appears in a
// registry snapshot, so samples recorded through it silently vanish
// from -metrics-out. Handles must come from Registry.Counter / Gauge
// (or a View built over a registry).
var StatPath = &Analyzer{
	Name: "statpath",
	Doc:  "wrong-path-split counters may only be incremented by approved accessors; obs metric handles may only come from a registry",
	Run:  runStatPath,
}

// protectedCounters maps "pkgpath.StructName" to the guarded fields.
var protectedCounters = map[string]map[string]bool{
	"repro/internal/cache.PathStats": {"Accesses": true, "Misses": true},
	"repro/internal/cache.Hierarchy": {"WrongMemAccesses": true},
	"repro/internal/core.Stats": {
		"WPFetched": true, "WPExecuted": true, "WPLoads": true, "WPLoadsWithAddr": true,
	},
}

// approvedAccessors lists the functions allowed to touch protected
// counters, as "pkgpath-suffix:FuncName" (methods use their bare name).
var approvedAccessors = map[string]bool{
	"internal/cache:record":        true,
	"internal/cache:Access":        true, // (*TLB).Access
	"internal/cache:memAccess":     true, // (*Hierarchy).memAccess
	"internal/core:noteWPFetched":  true, // (*Stats).noteWPFetched
	"internal/core:noteWPExecuted": true, // (*Stats).noteWPExecuted
}

// obsHandleTypes are the registry-owned metric handle types: their
// only approved constructors are the Registry accessor methods.
var obsHandleTypes = map[string]bool{"Counter": true, "Gauge": true}

func runStatPath(pass *Pass) {
	runSplitCounters(pass)
	runObsHandles(pass)
}

// runObsHandles flags direct construction of obs metric handles
// (composite literals, new(), and value-typed var declarations)
// anywhere outside internal/obs itself.
func runObsHandles(pass *Pass) {
	if strings.HasSuffix(pass.Pkg.Path, "internal/obs") {
		return // the registry implementation constructs its own handles
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if name, ok := obsHandleType(pass, n.Type); ok {
					pass.Reportf(n.Pos(), "direct construction of obs.%s; metric handles must come from a Registry (Registry.%s or an obs.View) or they never reach the snapshot", name, name)
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
					if name, ok := obsHandleType(pass, n.Args[0]); ok {
						pass.Reportf(n.Pos(), "direct construction of obs.%s via new(); metric handles must come from a Registry (Registry.%s or an obs.View) or they never reach the snapshot", name, name)
					}
				}
			case *ast.ValueSpec:
				// A value-typed declaration (var c obs.Counter) mints a zero
				// handle; pointer declarations are fine — they hold registry
				// handles.
				if n.Type != nil {
					if name, ok := obsHandleType(pass, n.Type); ok {
						pass.Reportf(n.Pos(), "value declaration of obs.%s mints an unregistered handle; declare a *obs.%s and fill it from a Registry", name, name)
					}
				}
			}
			return true
		})
	}
}

// obsHandleType reports whether the type expression denotes one of the
// obs metric handle value types (not a pointer to one).
func obsHandleType(pass *Pass, expr ast.Expr) (string, bool) {
	if expr == nil {
		return "", false
	}
	tv, ok := pass.Pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return "", false
	}
	named, ok := tv.Type.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/obs") {
		return "", false
	}
	if !obsHandleTypes[obj.Name()] {
		return "", false
	}
	return obj.Name(), true
}

// runSplitCounters is the original wrong-path-split increment check.
func runSplitCounters(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var lhs ast.Expr
			switch n := n.(type) {
			case *ast.IncDecStmt:
				lhs = n.X
			case *ast.AssignStmt:
				switch n.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN,
					token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.SHL_ASSIGN, token.SHR_ASSIGN:
					if len(n.Lhs) == 1 {
						lhs = n.Lhs[0]
					}
				}
			default:
				return true
			}
			if lhs == nil {
				return true
			}
			sel, ok := lhs.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			owner, field, ok := selectedField(pass, sel)
			if !ok {
				return true
			}
			fields, protected := protectedCounters[owner]
			if !protected || !fields[field] {
				return true
			}
			if file := fileOf(pass, sel.Pos()); file != nil {
				if fd := enclosingFunc(file, sel.Pos()); fd != nil &&
					approvedAccessors[pkgSuffixKey(pass.Pkg.Path, fd.Name.Name)] {
					return true
				}
			}
			pass.Reportf(sel.Pos(), "direct increment of wrong-path-split counter %s.%s outside its approved accessor; route it through the accessor so the correct/wrong split stays audited", owner, field)
			return true
		})
	}
}

// selectedField resolves a selector to (owning struct "pkg.Type",
// field name) when it denotes a struct field.
func selectedField(pass *Pass, sel *ast.SelectorExpr) (owner, field string, ok bool) {
	s, found := pass.Pkg.Info.Selections[sel]
	if !found || s.Kind() != types.FieldVal {
		return "", "", false
	}
	recv := s.Recv()
	if p, isPtr := recv.Underlying().(*types.Pointer); isPtr {
		recv = p.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name(), s.Obj().Name(), true
}

func pkgSuffixKey(pkgPath, fn string) string {
	// Keep the last two path elements ("internal/cache") so the lookup
	// is stable regardless of the module name.
	parts := strings.Split(pkgPath, "/")
	if len(parts) > 2 {
		parts = parts[len(parts)-2:]
	}
	return strings.Join(parts, "/") + ":" + fn
}

func fileOf(pass *Pass, pos token.Pos) *ast.File {
	for _, f := range pass.Pkg.Files {
		if f.Pos() <= pos && pos <= f.End() {
			return f
		}
	}
	return nil
}
