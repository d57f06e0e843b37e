package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// loadFixtureDir loads one testdata fixture directory with a fresh
// loader (no package memoization across calls, so tests that rewrite
// files re-read them).
func loadFixtureDir(t *testing.T, dir string) *Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

// TestFixIdempotent is the -fix acceptance gate: applying suggested
// fixes once eliminates every fixable finding, and applying them a
// second time changes not a single byte.
func TestFixIdempotent(t *testing.T) {
	// The work tree must live inside the module (the loader resolves
	// repro/... imports against the module root); an underscore prefix
	// keeps it out of ./... expansion and go tooling alike.
	work, err := os.MkdirTemp(testdataDir(t), "_fixwork")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(work) })
	src, err := os.ReadFile(filepath.Join(testdataDir(t), "src", "exhaustive", "exhaustive.go"))
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(work, "exhaustive.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}

	diags := Run([]*Package{loadFixtureDir(t, work)}, []*Analyzer{Exhaustive})
	fixable := 0
	for _, d := range diags {
		if len(d.Fixes) > 0 {
			fixable++
		}
	}
	if fixable == 0 {
		t.Fatal("exhaustive fixture produced no fixable findings")
	}
	applied, files, err := ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied != fixable || len(files) != 1 {
		t.Fatalf("applied %d fixes to %d files, want %d fixes to 1 file", applied, len(files), fixable)
	}
	afterFirst, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(afterFirst) == string(src) {
		t.Fatal("ApplyFixes reported success but the file is unchanged")
	}

	// Round two: every fixable finding must be gone, and the tree must
	// not move.
	diags2 := Run([]*Package{loadFixtureDir(t, work)}, []*Analyzer{Exhaustive})
	for _, d := range diags2 {
		if len(d.Fixes) > 0 {
			t.Errorf("finding still fixable after -fix: %s", d)
		}
	}
	applied2, _, err := ApplyFixes(diags2)
	if err != nil {
		t.Fatal(err)
	}
	if applied2 != 0 {
		t.Fatalf("second ApplyFixes applied %d fixes, want 0", applied2)
	}
	afterSecond, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if string(afterSecond) != string(afterFirst) {
		t.Fatal("second fix round changed bytes: -fix is not idempotent")
	}
}

// TestRunOrderAndDedupe is the regression test for nondeterministic
// diagnostic ordering: findings reported out of order, at equal
// positions by different analyzers, and as exact duplicates must come
// out of Run stably sorted by (file, line, col, analyzer, message) with
// duplicates collapsed.
func TestRunOrderAndDedupe(t *testing.T) {
	pkg := loadFixtureDir(t, filepath.Join(testdataDir(t), "src", "allowscope"))
	pos := pkg.Files[0].Name.Pos()
	report := func(pass *Pass) {
		pass.Reportf(pos, "zz later message")
		pass.Reportf(pos, "aa earlier message")
		pass.Reportf(pos, "aa earlier message") // exact duplicate
	}
	b := &Analyzer{Name: "bbb", Doc: "fake", Run: report}
	a := &Analyzer{Name: "aaa", Doc: "fake", Run: report}
	diags := Run([]*Package{pkg}, []*Analyzer{b, a}) // registered out of order
	var got []string
	for _, d := range diags {
		got = append(got, d.Analyzer+" "+d.Message)
	}
	want := []string{
		"aaa aa earlier message",
		"aaa zz later message",
		"bbb aa earlier message",
		"bbb zz later message",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("diagnostic order/dedupe mismatch\n got %q\nwant %q", got, want)
	}
}

// TestAllowScoping covers the directive edge cases: stacked directives
// on one line, a directive on a package-level declaration, and the
// loader's exclusion of _test.go files.
func TestAllowScoping(t *testing.T) {
	dir := filepath.Join(testdataDir(t), "src", "allowscope")
	pkg := loadFixtureDir(t, dir)
	diags := Run([]*Package{pkg}, []*Analyzer{Determinism, StatPath, WPFlow})

	lineOf := func(d Diagnostic) int { return d.Pos.Line }
	byAnalyzer := map[string][]int{}
	for _, d := range diags {
		if strings.HasSuffix(d.Pos.Filename, "_test.go") {
			t.Errorf("diagnostic in a _test.go file, which the loader must exclude: %s", d)
		}
		byAnalyzer[d.Analyzer] = append(byAnalyzer[d.Analyzer], lineOf(d))
	}

	// The bare package-level declaration is statpath's only finding;
	// the directive-carrying twin right above it is suppressed.
	if got := byAnalyzer["statpath"]; len(got) != 1 {
		t.Errorf("statpath findings at lines %v, want exactly one (the bare package-level decl)", got)
	}
	// StackedDirectives suppresses both analyzers; HalfSuppressed only
	// determinism, so wpflow survives there and determinism reports
	// nothing at all.
	if got := byAnalyzer["determinism"]; len(got) != 0 {
		t.Errorf("determinism findings at lines %v, want none (both sites carry allow directives)", got)
	}
	if got := byAnalyzer["wpflow"]; len(got) != 1 {
		t.Errorf("wpflow findings at lines %v, want exactly one (the half-suppressed line)", got)
	}
}

// TestSARIFGolden locks the SARIF 2.1.0 rendering of the wpflow
// fixture's findings.
func TestSARIFGolden(t *testing.T) {
	pkg := loadFixtureDir(t, filepath.Join(testdataDir(t), "src", "wpflow"))
	diags := Run([]*Package{pkg}, []*Analyzer{WPFlow})
	data, err := SARIF(diags, []*Analyzer{WPFlow}, testdataDir(t))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "wpflow.sarif", string(data))
}
