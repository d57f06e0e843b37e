package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PanicFree forbids bare panic(...) calls in the simulator's
// fault-contained packages (internal/sim, core, queue, frontend,
// batch). Those packages sit inside the fault-containment boundary:
// sim.Execute, the batch engine and the parallel frontend recover panics
// into typed simerr.ErrWorkerPanic faults — but a recovery path is a
// last resort, not an error channel. Code inside the boundary must
// surface faults as typed simerr values (or plain errors) so callers can
// match them with errors.Is; a panic erases the simulation context the
// fault taxonomy carries.
//
// A deliberate can't-happen invariant may be kept with a same-line
//
//	//wplint:allow-panic -- <reason>
//
// directive (the generic `//wplint:allow panicfree -- <reason>` form
// also works).
var PanicFree = &Analyzer{
	Name: "panicfree",
	Doc:  "forbid bare panic(...) in fault-contained simulator packages; faults must flow as typed simerr values",
	Run:  runPanicFree,
}

// panicFreePkgs are the import-path suffixes inside the
// fault-tolerance boundary (plus the analyzer's own fixture).
var panicFreePkgs = []string{
	"/internal/sim",
	"/internal/core",
	"/internal/queue",
	"/internal/frontend",
	"/internal/batch",
	"/testdata/src/panicfree",
}

func runPanicFree(pass *Pass) {
	covered := false
	for _, suffix := range panicFreePkgs {
		if strings.HasSuffix(pass.Pkg.Path, suffix) {
			covered = true
			break
		}
	}
	if !covered {
		return
	}
	for _, f := range pass.Pkg.Files {
		allowed := panicAllowLines(pass.Pkg, f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true // a local function shadowing the builtin
			}
			if allowed[pass.Pkg.Fset.Position(call.Pos()).Line] {
				return true
			}
			pass.Reportf(call.Pos(), "bare panic in a fault-contained package; return a typed simerr fault instead, or mark a deliberate invariant with //wplint:allow-panic")
			return true
		})
	}
}

// panicAllowLines collects the lines of a file carrying the dedicated
// //wplint:allow-panic directive.
func panicAllowLines(pkg *Package, f *ast.File) map[int]bool {
	out := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//wplint:allow-panic") {
				out[pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}
