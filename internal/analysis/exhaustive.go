package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Exhaustive enforces that switch statements over the simulator's
// extension-point enums cover every declared constant or carry an
// explicit default clause. Adding an opcode, instruction class or
// wrong-path policy then fails the lint at every dispatch site that
// silently ignores the new case, instead of silently compiling.
// Beyond switches, a composite literal over an enforced enum (e.g. the
// canonical wrongpath.Kinds() ordering) can opt into the same coverage
// check with a same-line //wplint:exhaustive directive; the literal
// must then name every declared constant.
//
// The check sees through type aliases and same-package defined types
// over an enforced enum ("type mine = isa.Class" / "type mine
// isa.Class"), so renaming an extension-point type cannot shed its
// coverage obligation. Two fault-taxonomy forms are enforced too: a
// value switch over the simerr.Err* sentinels must cover every sentinel
// or declare a default (every driver's fault handling dispatches on
// this classification), and a type switch naming a simerr fault type
// must declare a default, because the error type space is open.
//
// Missing-case findings on switches carry a machine-applicable
// suggested fix that inserts an explicitly-empty case (or default)
// clause — a no-op, so wplint -fix is always behavior-preserving.
var Exhaustive = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over ISA/policy enums and simerr sentinels must cover every constant or declare a default",
	Run:  runExhaustive,
}

// ExhaustiveEnums lists the enforced enum types as "pkgpath.TypeName".
// These are the extension points new instructions and policies flow
// through; extend the list when a new enum-like dispatch type appears.
var ExhaustiveEnums = map[string]bool{
	"repro/internal/isa.Class":            true,
	"repro/internal/isa.Op":               true,
	"repro/internal/wrongpath.Kind":       true,
	"repro/internal/branch.PredictorKind": true,
}

func runExhaustive(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		marked := exhaustiveDirectiveLines(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tagType := info.TypeOf(n.Tag)
				if named, _, ok := enforcedEnum(pass, tagType); ok {
					checkSwitch(pass, f, n, named, tagType)
				} else {
					checkSentinelSwitch(pass, f, n)
				}
			case *ast.TypeSwitchStmt:
				checkTypeSwitch(pass, n)
			case *ast.CompositeLit:
				checkMarkedLiteral(pass, n, marked)
			}
			return true
		})
	}
}

// enforcedEnum resolves t to an enum in ExhaustiveEnums, seeing through
// type aliases and — for same-package defined types — one level of
// renaming ("type mine isa.Class" is checked against isa.Class's
// constants; values are compared numerically, so local re-declarations
// of the constants still count as covered).
func enforcedEnum(pass *Pass, t types.Type) (*types.Named, string, bool) {
	if t == nil {
		return nil, "", false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return nil, "", false
	}
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	if ExhaustiveEnums[qual] {
		return named, qual, true
	}
	return renamedBase(pass, named)
}

// renamedBase resolves a type declared in the analyzed package whose
// declaration names an enforced enum.
func renamedBase(pass *Pass, named *types.Named) (*types.Named, string, bool) {
	if named.Obj().Pkg() != pass.Pkg.Types {
		return nil, "", false
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || pass.Pkg.Info.Defs[ts.Name] != named.Obj() {
					continue
				}
				base, ok := types.Unalias(pass.Pkg.Info.TypeOf(ts.Type)).(*types.Named)
				if !ok || base.Obj().Pkg() == nil {
					return nil, "", false
				}
				qual := base.Obj().Pkg().Path() + "." + base.Obj().Name()
				if ExhaustiveEnums[qual] {
					return base, qual, true
				}
				return nil, "", false
			}
		}
	}
	return nil, "", false
}

// exhaustiveDirectiveLines collects the lines of f carrying a
// //wplint:exhaustive directive.
func exhaustiveDirectiveLines(pass *Pass, f *ast.File) map[int]bool {
	out := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if c.Text == "//wplint:exhaustive" || strings.HasPrefix(c.Text, "//wplint:exhaustive ") {
				out[pass.Pkg.Fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return out
}

// checkMarkedLiteral verifies a //wplint:exhaustive-marked slice or
// array literal over an enforced enum names every declared constant.
func checkMarkedLiteral(pass *Pass, lit *ast.CompositeLit, marked map[int]bool) {
	if len(marked) == 0 || !marked[pass.Pkg.Fset.Position(lit.Lbrace).Line] {
		return
	}
	t := pass.Pkg.Info.TypeOf(lit)
	if t == nil {
		return
	}
	var elem types.Type
	switch u := t.Underlying().(type) {
	case *types.Slice:
		elem = u.Elem()
	case *types.Array:
		elem = u.Elem()
	default:
		return
	}
	named, _, ok := enforcedEnum(pass, elem)
	if !ok {
		return
	}
	covered := make(map[int64]bool)
	for _, e := range lit.Elts {
		if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Value != nil {
			if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
				covered[v] = true
			}
		}
	}
	reportMissing(pass, lit.Pos(), named, covered,
		"composite literal marked //wplint:exhaustive over %s is missing %s")
}

func checkSwitch(pass *Pass, f *ast.File, sw *ast.SwitchStmt, named *types.Named, tagType types.Type) {
	covered := make(map[int64]bool)
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			return // explicit default: the author handled "everything else"
		}
		for _, e := range cc.List {
			if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Value != nil {
				if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
					covered[v] = true
				}
			}
		}
	}
	missing := missingConstants(named, covered)
	if len(missing) == 0 {
		return
	}
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	d := Diagnostic{Message: fmt.Sprintf(
		"switch over %s is not exhaustive and has no default: missing %s", qual, shortList(missing))}
	if fix, ok := emptyCaseFix(pass, f, sw.Body.Rbrace, sw.Pos(), named, tagType, missing); ok {
		d.Fixes = []SuggestedFix{fix}
	}
	pass.Report(sw.Pos(), d)
}

// emptyCaseFix builds the behavior-preserving repair for a
// non-exhaustive switch: an explicitly-empty case clause naming the
// missing constants, inserted before the closing brace. An empty case
// is a no-op — the unmatched values did nothing before and still do —
// so applying the fix never changes program behavior. No fix is offered
// when the tag type is a local rename (the constants would need
// conversions) or when an unexported constant would have to be named
// from another package.
func emptyCaseFix(pass *Pass, f *ast.File, rbrace, swPos token.Pos, named *types.Named, tagType types.Type, missing []string) (SuggestedFix, bool) {
	if !types.Identical(types.Unalias(tagType), named) {
		return SuggestedFix{}, false
	}
	qual := enumQualifier(pass, f, named)
	refs := make([]string, len(missing))
	for i, m := range missing {
		if qual != "" && !token.IsExported(m) {
			return SuggestedFix{}, false
		}
		refs[i] = qual + m
	}
	indent := indentAt(pass, swPos)
	text := "case " + strings.Join(refs, ", ") + ":\n" +
		indent + "\t// explicitly unhandled (inserted by wplint -fix)\n" + indent
	return SuggestedFix{
		Message: "insert an explicitly-empty case for the missing constants",
		Edits:   []TextEdit{pass.Edit(rbrace, rbrace, text)},
	}, true
}

// checkSentinelSwitch enforces coverage of the simerr.Err* sentinel
// classification: a value switch comparing an error against any fault
// sentinel must name every sentinel or declare a default, so a new fault
// class fails the lint at every dispatch site that ignores it.
func checkSentinelSwitch(pass *Pass, f *ast.File, sw *ast.SwitchStmt) {
	covered := make(map[string]bool)
	var simerrPkg *types.Package
	qual := ""
	for _, stmt := range sw.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			return // explicit default
		}
		for _, e := range cc.List {
			v := sentinelVar(pass, e)
			if v == nil {
				continue
			}
			covered[v.Name()] = true
			simerrPkg = v.Pkg()
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					qual = id.Name + "."
				}
			}
		}
	}
	if simerrPkg == nil {
		return // not a sentinel switch
	}
	var missing []string
	for _, name := range simerrPkg.Scope().Names() {
		if !strings.HasPrefix(name, "Err") || covered[name] {
			continue
		}
		if v, ok := simerrPkg.Scope().Lookup(name).(*types.Var); ok && isErrorType(v.Type()) {
			missing = append(missing, name)
		}
	}
	if len(missing) == 0 {
		return
	}
	sort.Strings(missing)
	indent := indentAt(pass, sw.Pos())
	refs := make([]string, len(missing))
	for i, m := range missing {
		refs[i] = qual + m
	}
	text := "case " + strings.Join(refs, ", ") + ":\n" +
		indent + "\t// explicitly unhandled (inserted by wplint -fix)\n" + indent
	pass.Report(sw.Pos(), Diagnostic{
		Message: fmt.Sprintf("switch over the simerr fault sentinels has no default and is missing %s", shortList(missing)),
		Fixes: []SuggestedFix{{
			Message: "insert an explicitly-empty case for the missing sentinels",
			Edits:   []TextEdit{pass.Edit(sw.Body.Rbrace, sw.Body.Rbrace, text)},
		}},
	})
}

// sentinelVar resolves e to a simerr Err* sentinel variable.
func sentinelVar(pass *Pass, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	v, ok := pass.Pkg.Info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	if !strings.HasSuffix(v.Pkg().Path(), "internal/simerr") || !isErrorType(v.Type()) {
		return nil
	}
	return v
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// checkTypeSwitch requires a default clause on any type switch that
// dispatches on a simerr fault type: the error type space is open
// (wrapped faults, future fault classes), so a type switch without a
// default silently drops unknown faults.
func checkTypeSwitch(pass *Pass, ts *ast.TypeSwitchStmt) {
	mentionsFault := false
	for _, stmt := range ts.Body.List {
		cc := stmt.(*ast.CaseClause)
		if cc.List == nil {
			return // explicit default
		}
		for _, e := range cc.List {
			t := pass.Pkg.Info.TypeOf(e)
			if t == nil {
				continue
			}
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := types.Unalias(t).(*types.Named); ok && n.Obj().Pkg() != nil &&
				strings.HasSuffix(n.Obj().Pkg().Path(), "internal/simerr") {
				mentionsFault = true
			}
		}
	}
	if !mentionsFault {
		return
	}
	indent := indentAt(pass, ts.Pos())
	text := "default:\n" +
		indent + "\t// unknown fault type: explicitly unhandled (inserted by wplint -fix)\n" + indent
	pass.Report(ts.Pos(), Diagnostic{
		Message: "type switch over simerr fault types has no default: the fault taxonomy is open, unknown faults would be silently dropped",
		Fixes: []SuggestedFix{{
			Message: "insert an explicitly-empty default clause",
			Edits:   []TextEdit{pass.Edit(ts.Body.Rbrace, ts.Body.Rbrace, text)},
		}},
	})
}

// missingConstants lists (sorted) the declared constants of named whose
// values are absent from covered.
func missingConstants(named *types.Named, covered map[int64]bool) []string {
	var missing []string
	for _, c := range enumConstants(named) {
		v, exact := constant.Int64Val(constant.ToInt(c.Val()))
		if exact && !covered[v] {
			missing = append(missing, c.Name())
		}
	}
	sort.Strings(missing)
	return missing
}

// shortList renders a missing-constant list, truncated past 6 entries.
func shortList(missing []string) string {
	shown := missing
	if len(shown) > 6 {
		shown = append(shown[:6:6], fmt.Sprintf("… (%d more)", len(missing)-6))
	}
	return strings.Join(shown, ", ")
}

// enumQualifier returns the selector prefix ("isa.") that references
// named's package from file f — empty when f is in the same package.
func enumQualifier(pass *Pass, f *ast.File, named *types.Named) string {
	pkg := named.Obj().Pkg()
	if pkg == pass.Pkg.Types {
		return ""
	}
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != pkg.Path() {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." {
				return ""
			}
			return imp.Name.Name + "."
		}
	}
	return pkg.Name() + "."
}

// indentAt reproduces the leading-tab indentation of pos's line
// (assuming gofmt'd source, which the repo enforces).
func indentAt(pass *Pass, pos token.Pos) string {
	col := pass.Pkg.Fset.Position(pos).Column
	if col < 1 {
		col = 1
	}
	return strings.Repeat("\t", col-1)
}

// reportMissing diagnoses at pos the declared constants of named not
// present in covered, using format with (enum, missing-list) verbs.
func reportMissing(pass *Pass, pos token.Pos, named *types.Named, covered map[int64]bool, format string) {
	qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	missing := missingConstants(named, covered)
	if len(missing) == 0 {
		return
	}
	pass.Reportf(pos, format, qual, shortList(missing))
}

// enumConstants returns the package-level constants of the named type.
// Unexported sentinels (names ending in "Max", e.g. opMax) bound the
// constant space rather than belonging to it and are skipped.
func enumConstants(named *types.Named) []*types.Const {
	scope := named.Obj().Pkg().Scope()
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		if !c.Exported() && strings.HasSuffix(strings.ToLower(name), "max") {
			continue
		}
		out = append(out, c)
	}
	return out
}
