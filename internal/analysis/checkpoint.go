package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Checkpoint enforces speculative-state hygiene: a function that takes
// a functional checkpoint (the paper's Pin-style register snapshot used
// for wrong-path emulation) must restore it on every return path that
// follows the snapshot. An unpaired checkpoint means architectural
// state silently leaks wrong-path execution into the correct path.
//
// The check is lexical, not a full CFG dominator analysis: for every
// return point after a Checkpoint call (including falling off the end
// of the function) there must be a Restore call between the checkpoint
// and that return, or a defer that performs the Restore.
//
// The analyzer's second rule guards the snapshot codec (package
// checkpoint): every Stream.Section stamp must cite a named version
// constant — never a literal — so adding a walked field forces a
// visible snapshot version bump in review. Each type walks its snapshot
// state once (State(*checkpoint.Stream)) for both saving and loading,
// so there is no second method whose fields could drift out of step.
var Checkpoint = &Analyzer{
	Name: "checkpoint",
	Doc:  "functional checkpoints must be restored on every return path; snapshot sections must be stamped with a named version",
	Run:  runCheckpoint,
}

// checkpointPairs lists the guarded create/release method pairs by the
// defining package's import-path suffix.
var checkpointPairs = []struct {
	pkgSuffix string
	create    string
	release   string
}{
	{"internal/functional", "Checkpoint", "Restore"},
}

func runCheckpoint(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncCheckpoints(pass, fd)
			checkSectionVersions(pass, fd)
		}
	}
}

// checkSectionVersions requires every snapshot Section stamp in the
// function to cite a named constant: a literal version cannot be bumped
// without touching every call site, which is exactly how stale stamps
// happen.
func checkSectionVersions(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isMethodCall(pass, call, "internal/checkpoint", "Section") || len(call.Args) != 2 {
			return true
		}
		ver := call.Args[1]
		tv, ok := pass.Pkg.Info.Types[ver]
		if !ok || tv.Value == nil {
			pass.Reportf(ver.Pos(), "%s stamps its section with a non-constant version; use the package's snapshotVersion constant", fd.Name.Name)
			return true
		}
		if _, lit := ver.(*ast.BasicLit); lit {
			pass.Reportf(ver.Pos(), "%s stamps its section with a literal version; name it (const snapshotVersion) so walked-field changes force a visible bump", fd.Name.Name)
		}
		return true
	})
}

func checkFuncCheckpoints(pass *Pass, fd *ast.FuncDecl) {
	for _, pair := range checkpointPairs {
		var creates, releases []token.Pos
		var deferredRelease []token.Pos

		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				if containsMethodCall(pass, n.Call, pair.pkgSuffix, pair.release) {
					deferredRelease = append(deferredRelease, n.Pos())
					return false
				}
			case *ast.CallExpr:
				if isMethodCall(pass, n, pair.pkgSuffix, pair.create) {
					creates = append(creates, n.Pos())
				}
				if isMethodCall(pass, n, pair.pkgSuffix, pair.release) {
					releases = append(releases, n.Pos())
				}
			}
			return true
		})
		if len(creates) == 0 {
			continue
		}
		// The release method itself (and the create method) trivially
		// touch the pair; don't demand Restore inside Restore.
		if fd.Name.Name == pair.create || fd.Name.Name == pair.release {
			continue
		}
		returnPoints := collectReturnPoints(fd)
		for _, cp := range creates {
			for _, ret := range returnPoints {
				if ret <= cp {
					continue
				}
				ok := false
				for _, rel := range releases {
					if cp < rel && rel < ret {
						ok = true
						break
					}
				}
				if !ok {
					for _, def := range deferredRelease {
						if def < ret {
							ok = true
							break
						}
					}
				}
				if !ok {
					pass.Reportf(cp, "%s has a return path at line %d without a %s for this %s; restore or discard the checkpoint on every path",
						fd.Name.Name, pass.Pkg.Fset.Position(ret).Line, pair.release, pair.create)
					break
				}
			}
		}
	}
}

// collectReturnPoints returns every return statement of the function
// (ignoring nested function literals) plus the end of the body as the
// implicit fall-off return.
func collectReturnPoints(fd *ast.FuncDecl) []token.Pos {
	var out []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			out = append(out, n.Pos())
		}
		return true
	})
	out = append(out, fd.Body.End())
	return out
}

// isMethodCall reports whether call invokes a method named name whose
// receiver type is declared in a package with the given path suffix.
func isMethodCall(pass *Pass, call *ast.CallExpr, pkgSuffix, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return strings.HasSuffix(fn.Pkg().Path(), pkgSuffix)
}

// containsMethodCall reports whether the expression tree under call
// (including a deferred closure body) contains a matching method call.
func containsMethodCall(pass *Pass, call *ast.CallExpr, pkgSuffix, name string) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && isMethodCall(pass, c, pkgSuffix, name) {
			found = true
		}
		return !found
	})
	return found
}
