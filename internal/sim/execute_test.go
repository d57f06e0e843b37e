package sim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/batch"
	"repro/internal/checkpoint"
	"repro/internal/simerr"
	"repro/internal/tracefile"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// sweep runs w under every kind through Execute on the batch engine —
// the fan-out shape the drivers use — and returns results in kinds
// order.
func sweep(t *testing.T, cfg Config, w workloads.Workload, kinds []wrongpath.Kind, workers int) []*Result {
	t.Helper()
	jobs := make([]func() (*Result, error), len(kinds))
	for i, k := range kinds {
		jobs[i] = func() (*Result, error) {
			c := cfg
			c.WP = k
			res, _, err := Execute(Request{Config: c, Workload: &w})
			return res, err
		}
	}
	out := make([]*Result, len(kinds))
	for i, r := range batch.RunContext(cfg.Ctx, jobs, workers) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out[i] = r.Value
	}
	return out
}

// copySnapshot places a copy of the snapshot at src (optionally mangled)
// into a fresh directory and returns the directory.
func copySnapshot(t *testing.T, src string, mangle bool) string {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if mangle {
		data[len(data)/2] ^= 0x40
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, filepath.Base(src)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// killedSnapshot runs req with checkpointing and cancels it at its
// first snapshot, returning that snapshot's path.
func killedSnapshot(t *testing.T, req Request) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req.Config.Ctx = ctx
	req.Config.CheckpointDir = t.TempDir()
	req.Config.CheckpointEvery = 8_000
	req.Config.OnCheckpoint = func(uint64, string) { cancel() }
	res, _, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, simerr.ErrCanceled) {
		t.Fatalf("killed run Err = %v, want ErrCanceled", res.Err)
	}
	snap, err := checkpoint.Latest(req.Config.CheckpointDir)
	if err != nil || snap == "" {
		t.Fatalf("no snapshot after kill: %q, %v", snap, err)
	}
	return snap
}

// TestExecuteResumeRule is the single execution path's acceptance table:
// every technique × input (workload, trace) × start (from zero, resumed
// from a mid-run snapshot, a snapshot written under another
// configuration, one written under another technique, a corrupt
// snapshot). Every cell must equal an uninterrupted run, and resumed
// must be true exactly when the request's own snapshot was restored.
func TestExecuteResumeRule(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	trace := recordTrace(t)
	inputs := []struct {
		name string
		req  func(Config) Request
		base func(Config) *Result
	}{
		{"workload",
			func(c Config) Request { return Request{Config: c, Workload: &w} },
			func(c Config) *Result {
				res, err := Run(c, w.MustBuild())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}},
		{"trace",
			func(c Config) Request { return Request{Config: c, Trace: trace} },
			func(c Config) *Result {
				p, err := tracefile.NewReader(bytes.NewReader(trace))
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSession(c, NewTraceSource(p))
				if err != nil {
					t.Fatal(err)
				}
				return s.Run()
			}},
	}
	for _, k := range wrongpath.Kinds() {
		for _, in := range inputs {
			cfg := chaosConfig(k, 64)
			if in.name == "trace" && k == wrongpath.WPEmul {
				continue // wpemul cannot run on a trace (§III-B): TestExecuteRejectsWPEmulOnTrace
			}
			base := stripWall(in.base(cfg))
			if base.Err != nil {
				t.Fatalf("%v/%s baseline fault: %v", k, in.name, base.Err)
			}
			good := killedSnapshot(t, in.req(cfg))
			other := cfg
			other.MaxInsts++
			mismatched := killedSnapshot(t, in.req(other))
			other = cfg
			other.WP = wrongpath.Conv
			if k == wrongpath.Conv {
				other.WP = wrongpath.NoWP
			}
			otherTechnique := killedSnapshot(t, in.req(other))
			starts := []struct {
				name    string
				dir     func() string
				resumed bool
			}{
				{"zero", func() string { return t.TempDir() }, false},
				{"resume", func() string { return copySnapshot(t, good, false) }, true},
				{"mismatched", func() string { return copySnapshot(t, mismatched, false) }, false},
				{"other technique", func() string { return copySnapshot(t, otherTechnique, false) }, false},
				{"corrupt", func() string { return copySnapshot(t, good, true) }, false},
			}
			for _, st := range starts {
				c := cfg
				c.CheckpointDir = st.dir()
				c.CheckpointEvery = 8_000
				req := in.req(c)
				req.Resume = true
				res, resumed, err := Execute(req)
				name := k.String() + "/" + in.name + "/" + st.name
				if err != nil {
					t.Errorf("%s: %v", name, err)
					continue
				}
				if resumed != st.resumed {
					t.Errorf("%s: resumed = %v, want %v", name, resumed, st.resumed)
				}
				if !reflect.DeepEqual(base, stripWall(res)) {
					t.Errorf("%s: result diverges from an uninterrupted run\nbase: %+v\ngot:  %+v",
						name, base, stripWall(res))
				}
			}
		}
	}
}

// TestExecuteNeedsOneInput: a request names exactly one input.
func TestExecuteNeedsOneInput(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	for _, req := range []Request{
		{Config: Default(wrongpath.Conv)},
		{Config: Default(wrongpath.Conv), Workload: &w, Trace: []byte{}},
	} {
		if _, _, err := Execute(req); !errors.Is(err, simerr.ErrConfig) {
			t.Errorf("err = %v, want ErrConfig", err)
		}
	}
}

// TestExecuteParallelMatchesSerial: the batch engine's core guarantee
// at the sim layer — a sweep over Execute with N workers must produce
// results bit-identical to the serial sweep, in kinds order, for every
// field but the host wall clock. CI runs this under -race.
func TestExecuteParallelMatchesSerial(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	kinds := wrongpath.Kinds()
	cfg := Default(wrongpath.NoWP)
	serial := sweep(t, cfg, w, kinds, 1)
	parallel := sweep(t, cfg, w, kinds, 4)
	for i, k := range kinds {
		s, p := serial[i], parallel[i]
		if s.WP != k || p.WP != k {
			t.Fatalf("result %d: out of kinds order (serial %v, parallel %v, want %v)", i, s.WP, p.WP, k)
		}
		if !reflect.DeepEqual(stripWall(s), stripWall(p)) {
			t.Errorf("%v: results diverge across worker counts:\n serial   %+v\n parallel %+v", k, stripWall(s), stripWall(p))
		}
	}
}

// resumeInto writes snapshots for from, then resumes to over the same
// directory: the snapshot belongs to another input, so the run must
// start from zero and equal a fresh run of to.
func resumeInto(t *testing.T, from, to Request) {
	t.Helper()
	cfg := chaosConfig(wrongpath.Conv, 64)
	to.Config = cfg
	fresh, _, err := Execute(to)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 16_000
	from.Config, to.Config = cfg, cfg
	writeSnapshots(t, from)
	to.Resume = true
	res, resumed, err := Execute(to)
	if err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Error("resumed from another input's snapshot")
	}
	if !reflect.DeepEqual(stripWall(fresh), stripWall(res)) {
		t.Errorf("result diverges from a fresh run\nfresh: %+v\ngot:   %+v", stripWall(fresh), stripWall(res))
	}
}

// TestExecuteResumeRejectsOtherWorkload: a bfs snapshot must not
// continue a cc run with the same budgets.
func TestExecuteResumeRejectsOtherWorkload(t *testing.T) {
	bfs, cc := gap.BFS(gap.TestParams()), gap.CC(gap.TestParams())
	resumeInto(t, Request{Workload: &bfs}, Request{Workload: &cc})
}

// TestExecuteResumeRejectsOtherInput: a bfs snapshot over one graph
// must not continue bfs over a graph twice its size.
func TestExecuteResumeRejectsOtherInput(t *testing.T) {
	small, big := gap.TestParams(), gap.TestParams()
	big.N *= 2
	a, b := gap.BFS(small), gap.BFS(big)
	resumeInto(t, Request{Workload: &a}, Request{Workload: &b})
}

// TestExecuteResumeRejectsOtherTrace: a replay of a bfs trace must not
// continue a replay of a cc trace — the trace bytes are the input.
func TestExecuteResumeRejectsOtherTrace(t *testing.T) {
	bfs, cc := gap.BFS(gap.TestParams()), gap.CC(gap.TestParams())
	resumeInto(t, Request{Trace: recordWorkload(t, bfs)}, Request{Trace: recordWorkload(t, cc)})
}

// TestExecuteStartsNoGoroutine: a cancellable, checkpointed run stays on
// the caller's goroutine — cancellation is polled at lane boundaries,
// not watched from a second goroutine.
func TestExecuteStartsNoGoroutine(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := chaosConfig(wrongpath.Conv, 64)
	cfg.Ctx = ctx
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 8_000
	before := runtime.NumGoroutine()
	var during []int
	cfg.OnCheckpoint = func(uint64, string) { during = append(during, runtime.NumGoroutine()) }
	res, _, err := Execute(Request{Config: cfg, Workload: &w})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if len(during) == 0 {
		t.Fatal("the run wrote no snapshot")
	}
	for i, n := range during {
		if n > before {
			t.Errorf("snapshot %d: %d goroutines during the run, %d before it", i, n, before)
		}
	}
}
