package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// runWpsim invokes the command in-process and returns (exit code,
// stdout, stderr).
func runWpsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func quickArgs(extra ...string) []string {
	return append([]string{"-suite", "gap", "-bench", "bfs", "-n", "1024", "-degree", "4"}, extra...)
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, stderr := runWpsim(t, quickArgs("-wp", "conv")...)
	if code != exitClean {
		t.Fatalf("exit %d, want 0\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "workload            gap/bfs") || !strings.Contains(out, "IPC") {
		t.Errorf("report missing expected lines:\n%s", out)
	}
}

// TestAnnotatedExitFlushesObservability is the regression test for the
// output-loss bug: a run that exits annotated (code 3) must still write
// -metrics-out and -trace-out. A trace cut mid-record makes the fault
// deterministic: the replay keeps its valid prefix and reports the
// corruption.
func TestAnnotatedExitFlushesObservability(t *testing.T) {
	trace := cutTrace(t)
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "metrics.json")
	traceOut := filepath.Join(dir, "trace.json")
	code, out, stderr := runWpsim(t, "-replay", trace, "-wp", "conv",
		"-metrics-out", metricsOut, "-trace-out", traceOut)
	if code != exitAnnotated {
		t.Fatalf("exit %d, want %d (annotated)\nstderr: %s", code, exitAnnotated, stderr)
	}
	if !strings.Contains(out, "functional error") || !strings.Contains(out, "trace corrupt") {
		t.Errorf("fault not annotated in the report:\n%s", out)
	}
	data, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatalf("annotated exit lost -metrics-out: %v", err)
	}
	var metrics []map[string]any
	if err := json.Unmarshal(data, &metrics); err != nil || len(metrics) == 0 {
		t.Errorf("metrics file malformed (err %v, %d entries)", err, len(metrics))
	}
	var spans any
	traceData, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatalf("annotated exit lost -trace-out: %v", err)
	}
	if err := json.Unmarshal(traceData, &spans); err != nil {
		t.Errorf("trace file malformed: %v", err)
	}
}

// TestHardFailureFlushesObservability: even an exit-1 path reached
// after Start (here: an unknown technique) flushes the metrics file.
func TestHardFailureFlushesObservability(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, _, stderr := runWpsim(t, quickArgs("-wp", "quantum", "-metrics-out", metricsOut)...)
	if code != exitFailure {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "unknown wrong-path technique") {
		t.Errorf("stderr missing diagnosis: %s", stderr)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Fatalf("hard-failure exit lost -metrics-out: %v", err)
	}
}

// TestFlushFailureHardensExit: a clean simulation whose metrics cannot
// be written must not exit 0 — silent observability loss is the bug
// this PR removes.
func TestFlushFailureHardensExit(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "missing-dir", "metrics.json")
	code, _, stderr := runWpsim(t, quickArgs("-wp", "conv", "-metrics-out", metricsOut)...)
	if code != exitFailure {
		t.Fatalf("exit %d, want 1 when the metrics flush fails\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "observability") {
		t.Errorf("stderr missing flush diagnosis: %s", stderr)
	}
}

// TestCompareAllAnnotatedExit: -wp all with an induced per-cell fault
// (a trace cut mid-record, so every cell's reader reports corruption)
// prints the full table and exits annotated, and the metrics still
// flush.
func TestCompareAllAnnotatedExit(t *testing.T) {
	trace := cutTrace(t)
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, out, stderr := runWpsim(t, "-replay", trace, "-wp", "all", "-jobs", "2", "-metrics-out", metricsOut)
	if code != exitAnnotated {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitAnnotated, out, stderr)
	}
	if !strings.Contains(out, "FAULT(") {
		t.Errorf("table missing FAULT annotations:\n%s", out)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Fatalf("annotated -wp all exit lost -metrics-out: %v", err)
	}
}

// recordSmallTrace records a short gap/bfs trace and returns its path.
func recordSmallTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bfs.trace")
	code, out, stderr := runWpsim(t, "-suite", "gap", "-bench", "bfs", "-max-insts", "20000", "-record", path)
	if code != exitClean {
		t.Fatalf("record exit %d\nstdout: %s\nstderr: %s", code, out, stderr)
	}
	return path
}

// cutTrace records a short trace and cuts it mid-record, so every replay
// of it reports corruption after its valid prefix.
func cutTrace(t *testing.T) string {
	t.Helper()
	trace := recordSmallTrace(t)
	data, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(trace, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	return trace
}

func TestRecordAndCleanReplay(t *testing.T) {
	trace := recordSmallTrace(t)
	code, out, stderr := runWpsim(t, "-replay", trace, "-wp", "conv")
	if code != exitClean {
		t.Fatalf("replay exit %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(out, "workload            trace:"+trace) ||
		!strings.Contains(out, "technique           conv") || !strings.Contains(out, "IPC") {
		t.Errorf("replay report incomplete:\n%s", out)
	}
}

// TestWPEmulReplayFlushesObservability: wpemul on a trace frontend is
// an invalid request (paper §III-B), so the replay exits 1, and
// -metrics-out must still be written.
func TestWPEmulReplayFlushesObservability(t *testing.T) {
	trace := recordSmallTrace(t)
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, out, stderr := runWpsim(t, "-replay", trace, "-wp", "wpemul", "-metrics-out", metricsOut)
	if code != exitFailure {
		t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, exitFailure, out, stderr)
	}
	if !strings.Contains(stderr, "invalid configuration") {
		t.Errorf("stderr missing the ErrConfig diagnosis: %s", stderr)
	}
	if fi, err := os.Stat(metricsOut); err != nil || fi.Size() == 0 {
		t.Fatalf("failed replay lost -metrics-out (err %v)", err)
	}
}

func TestReplayHardFailureFlushesObservability(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	code, _, stderr := runWpsim(t, "-replay", filepath.Join(t.TempDir(), "missing.trace"),
		"-wp", "conv", "-metrics-out", metricsOut)
	if code != exitFailure {
		t.Fatalf("exit %d, want 1\nstderr: %s", code, stderr)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Fatalf("hard-failure replay lost -metrics-out: %v", err)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runWpsim(t, "-bogus"); code != exitUsage {
		t.Errorf("bad flag: exit %d, want %d", code, exitUsage)
	}
	dir := t.TempDir()
	code, _, stderr := runWpsim(t, "-record", filepath.Join(dir, "a.trace"), "-replay", filepath.Join(dir, "b.trace"))
	if code != exitUsage {
		t.Errorf("-record with -replay: exit %d, want %d\nstderr: %s", code, exitUsage, stderr)
	}
}

// TestSweepCanceledPrintsEveryRow: a sweep canceled before any cell
// starts still prints one FAULT row per technique and reports the
// table annotated, instead of dropping it as a hard failure.
func TestSweepCanceledPrintsEveryRow(t *testing.T) {
	w, err := catalog.Find("gap", "bfs", catalog.Params{N: 1024, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := sim.Request{Config: sim.Default(wrongpath.Conv), Workload: &w}
	req.Config.Ctx = ctx
	var out bytes.Buffer
	if !compareAll(&out, req, 2) {
		t.Errorf("canceled sweep not reported annotated")
	}
	for _, k := range wrongpath.Kinds() {
		if !strings.Contains(out.String(), fmt.Sprintf("\n%-10s FAULT: ", k)) {
			t.Errorf("no FAULT row for %v:\n%s", k, out.String())
		}
	}
}

// TestRecordHonorsInputFlags: a trace recorded from a shaped input
// replays to the same instructions and cycles as the live run of that
// input.
func TestRecordHonorsInputFlags(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "bfs.trace")
	if code, _, stderr := runWpsim(t, quickArgs("-record", trace)...); code != exitClean {
		t.Fatalf("record exit %d\nstderr: %s", code, stderr)
	}
	_, live, _ := runWpsim(t, quickArgs("-wp", "nowp")...)
	_, replay, _ := runWpsim(t, "-replay", trace, "-wp", "nowp")
	for _, stat := range []string{"instructions", "cycles"} {
		if got, want := statLine(replay, stat), statLine(live, stat); got == "" || got != want {
			t.Errorf("replay %q, live run %q", got, want)
		}
	}
}

// statLine returns the report line that starts with name.
func statLine(report, name string) string {
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return ""
}
