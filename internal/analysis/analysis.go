// Package analysis is a stdlib-only static-analysis framework for this
// repository's simulator-specific invariants. It loads and type-checks
// the module's packages from source (go/parser + go/types, no external
// tooling) and runs a suite of analyzers that enforce the properties
// the reproduction's results depend on:
//
//   - determinism: simulation code must not depend on wall time,
//     global randomness, the environment, or map iteration order;
//   - exhaustive: switches over the ISA and policy enums must cover
//     every constant or declare an explicit default;
//   - checkpoint: functional checkpoints must be restored on every
//     return path;
//   - statpath: wrong-path-split statistic counters may only be
//     incremented by their approved accessor functions;
//   - panicfree: the fault-contained packages (sim, core, queue,
//     frontend, batch) must surface faults as typed simerr values, not
//     bare panics (escape hatch: same-line //wplint:allow-panic);
//   - wpflow: interprocedural taint analysis proving that wrong-path
//     state, host wall-clock reads and recovered panic values never
//     reach committed architectural state or correct-path statistics
//     except through the approved accessor / Restore APIs (escape
//     hatch: same-line //wplint:flow -- <reason>).
//
// The driver CLI is cmd/wplint. Analyzers report file:line:col
// diagnostics; a finding can be suppressed only with an explicit
// same-line directive
//
//	//wplint:allow <analyzer> -- <reason>
//
// which exists for the handful of allowlisted shims (e.g. the wall
// clock in internal/sim) — not for waving real violations through.
// Several directives may share one comment; each must carry its own
// " -- " reason.
//
// Diagnostics carry a Severity and may attach machine-applicable
// SuggestedFixes; cmd/wplint applies them with -fix and renders SARIF
// 2.1.0 with -sarif.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Severity classifies how a finding is reported: an Error violates a
// correctness invariant outright, a Warning flags a flow that biases
// reported (host-side) numbers without corrupting simulated state, and
// Info is advisory. The zero value is SeverityError so existing
// analyzers that never set it keep failing the build.
type Severity int

const (
	SeverityError Severity = iota
	SeverityWarning
	SeverityInfo
)

// String returns the SARIF-compatible level name.
func (s Severity) String() string {
	switch s {
	case SeverityWarning:
		return "warning"
	case SeverityInfo:
		return "note"
	default:
		return "error"
	}
}

// TextEdit is one splice of a suggested fix. Offsets are byte offsets
// into the named file's current content ([Offset, End) replaced by
// NewText), so edits apply without a FileSet.
type TextEdit struct {
	Filename string
	Offset   int
	End      int
	NewText  string
}

// SuggestedFix is a machine-applicable repair for a finding. Applying
// every edit of the fix must eliminate the finding without changing
// program behavior (wplint -fix refuses nothing: analyzers only attach
// fixes that hold that contract, e.g. inserting an explicitly-empty
// case clause for a missing enum constant).
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's identifier, used in diagnostics and in
	// //wplint:allow directives.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass carries one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	allow map[string]map[int]map[string]bool // file → line → analyzer set
	out   *[]Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Severity defaults to SeverityError.
	Severity Severity
	// Fixes holds machine-applicable repairs, best first; wplint -fix
	// applies the first one.
	Fixes []SuggestedFix
}

func (d Diagnostic) String() string {
	sev := ""
	if d.Severity != SeverityError {
		sev = " [" + d.Severity.String() + "]"
	}
	return fmt.Sprintf("%s:%d:%d: %s:%s %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, sev, d.Message)
}

// Reportf records a SeverityError diagnostic at pos unless the source
// line carries a matching //wplint:allow directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(pos, Diagnostic{Message: fmt.Sprintf(format, args...)})
}

// Report records a diagnostic at pos, honoring same-line //wplint:allow
// directives. The diagnostic's Pos and Analyzer fields are filled in.
func (p *Pass) Report(pos token.Pos, d Diagnostic) {
	position := p.Pkg.Fset.Position(pos)
	if lines, ok := p.allow[position.Filename]; ok {
		if names, ok := lines[position.Line]; ok && names[p.Analyzer.Name] {
			return
		}
	}
	d.Pos = position
	d.Analyzer = p.Analyzer.Name
	*p.out = append(*p.out, d)
}

// Edit builds a TextEdit replacing [pos, end) with newText, converting
// the token positions to file offsets.
func (p *Pass) Edit(pos, end token.Pos, newText string) TextEdit {
	start := p.Pkg.Fset.Position(pos)
	stop := p.Pkg.Fset.Position(end)
	return TextEdit{Filename: start.Filename, Offset: start.Offset, End: stop.Offset, NewText: newText}
}

// allowDirectives scans a package's comments for //wplint:allow lines.
// A directive suppresses the named analyzer on the line it appears on
// and must carry a reason after " -- ". One comment may stack several
// directives ("//wplint:allow a -- r //wplint:allow b -- r"); each
// applies independently. The dedicated //wplint:flow form is shorthand
// for "//wplint:allow wpflow" (mirroring //wplint:allow-panic for the
// panicfree analyzer).
func allowDirectives(pkg *Package) map[string]map[int]map[string]bool {
	out := make(map[string]map[int]map[string]bool)
	record := func(pos token.Pos, name string) {
		position := pkg.Fset.Position(pos)
		byLine := out[position.Filename]
		if byLine == nil {
			byLine = make(map[int]map[string]bool)
			out[position.Filename] = byLine
		}
		names := byLine[position.Line]
		if names == nil {
			names = make(map[string]bool)
			byLine[position.Line] = names
		}
		names[name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "//wplint:flow") {
					record(c.Pos(), "wpflow")
				}
				rest := c.Text
				for {
					i := strings.Index(rest, "//wplint:allow ")
					if i < 0 {
						break
					}
					rest = rest[i+len("//wplint:allow "):]
					name, _, _ := strings.Cut(rest, " -- ")
					// A stacked directive ends where the next one begins.
					if j := strings.Index(name, "//wplint:"); j >= 0 {
						name = name[:j]
					}
					record(c.Pos(), strings.TrimSpace(name))
				}
			}
		}
	}
	return out
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Exhaustive, Checkpoint, StatPath, PanicFree, WPFlow}
}

// Run applies the analyzers to every package and returns the combined
// diagnostics, deduplicated and stably sorted by (file, line, column,
// analyzer, message). Two analyzers (or one analyzer visiting a node
// twice) reporting the identical finding collapse to one diagnostic,
// and equal-position findings always render in the same order, so
// golden files never flap with traversal order.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allow := allowDirectives(pkg)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, allow: allow, out: &diags}
			a.Run(pass)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := out[len(out)-1]
			if p.Pos == d.Pos && p.Analyzer == d.Analyzer && p.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// enclosingFunc returns the innermost function declaration of the file
// containing pos, or nil for package-level positions.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}
