// Command wplint runs the repository's simulator-invariant static
// analysis suite (internal/analysis) over the given packages and exits
// non-zero when any invariant is violated.
//
// Usage:
//
//	go run ./cmd/wplint ./...
//	go run ./cmd/wplint ./internal/sim ./internal/core
//	go run ./cmd/wplint -list
//	go run ./cmd/wplint -fix ./...
//	go run ./cmd/wplint -sarif wplint.sarif ./...
//
// Diagnostics are printed one per line as file:line:col: analyzer:
// message. -fix applies every machine-applicable suggested fix in
// place (idempotent: a second run changes nothing). -sarif writes a
// SARIF 2.1.0 log for code scanning alongside the normal output.
// Exit status: 0 clean, 1 findings, 2 load/usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	fix := flag.Bool("fix", false, "apply suggested fixes in place, then re-analyze")
	sarifOut := flag.String("sarif", "", "write a SARIF 2.1.0 log to this `file` (\"-\" for stdout)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: wplint [-list] [-fix] [-sarif file] [packages]\n\nRuns the simulator-invariant analyzers over the module's packages\n(default ./...). Patterns: a directory, or dir/... for a subtree.\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	diags, err := run(loader, patterns)
	if err != nil {
		fatal(err)
	}

	if *fix {
		applied, files, err := analysis.ApplyFixes(diags)
		if err != nil {
			fatal(err)
		}
		if applied > 0 {
			fmt.Fprintf(os.Stderr, "wplint: applied %d fix(es) to %d file(s)\n", applied, len(files))
			// Re-analyze from the rewritten sources with a fresh loader
			// (the old one memoizes parsed packages): remaining output
			// reflects what -fix could not repair.
			if loader, err = analysis.NewLoader(wd); err != nil {
				fatal(err)
			}
			if diags, err = run(loader, patterns); err != nil {
				fatal(err)
			}
		}
	}

	// Module-relative paths: stable across checkouts and clickable from
	// the repo root.
	for i := range diags {
		if rel, err := filepath.Rel(loader.ModuleRoot, diags[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			diags[i].Pos.Filename = filepath.ToSlash(rel)
		}
	}

	if *sarifOut != "" {
		data, err := analysis.SARIF(diags, analysis.All(), "")
		if err != nil {
			fatal(err)
		}
		if *sarifOut == "-" {
			os.Stdout.Write(data)
		} else if err := os.WriteFile(*sarifOut, data, 0o644); err != nil {
			fatal(err)
		}
	}

	// With -sarif -, the SARIF log owns stdout; keep it parseable by
	// routing the plain-text findings to stderr.
	findingsOut := os.Stdout
	if *sarifOut == "-" {
		findingsOut = os.Stderr
	}
	for _, d := range diags {
		fmt.Fprintln(findingsOut, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wplint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// run loads the patterns and applies the full analyzer suite.
func run(loader *analysis.Loader, patterns []string) ([]analysis.Diagnostic, error) {
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkgs, analysis.All()), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wplint:", err)
	os.Exit(2)
}
