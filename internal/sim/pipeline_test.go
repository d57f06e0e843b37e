package sim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/checkpoint"
	"repro/internal/simerr"
	"repro/internal/workloads"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
	"repro/internal/wrongpath"
)

// pipelineInputs are the equivalence inputs: GAP bfs, cc and sssp, and
// two SPEC-INT proxies, one that reconverges (hashtab) and one that
// does not (treewalk).
func pipelineInputs(t *testing.T) []workloads.Workload {
	p := gap.TestParams()
	ws := []workloads.Workload{gap.BFS(p), gap.CC(p), gap.SSSP(p)}
	for _, w := range specproxy.IntSuite(specproxy.TestParams()) {
		if w.Name == "treewalk" || w.Name == "hashtab" {
			ws = append(ws, w)
		}
	}
	if len(ws) != 5 {
		t.Fatalf("%d pipeline inputs, want 5", len(ws))
	}
	return ws
}

// runSession runs req as Execute does, restoring the newest snapshot in
// its CheckpointDir when req.Resume is set.
func runSession(t *testing.T, req Request) *Result {
	t.Helper()
	cfg := req.Config
	s, _, err := req.session(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if req.Resume {
		snap, err := checkpoint.Latest(cfg.CheckpointDir)
		if err != nil || snap == "" {
			t.Fatalf("no snapshot to resume from: %q, %v", snap, err)
		}
		r, err := checkpoint.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(r); err != nil {
			t.Fatal(err)
		}
	}
	return s.Run()
}

// killAndResume runs req, cancels it at its killAt-th snapshot, and
// resumes from the newest snapshot into the same directory.
func killAndResume(t *testing.T, req Request, killAt int) *Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := req
	killed.Config.Ctx = ctx
	seen := 0
	killed.Config.OnCheckpoint = func(uint64, string) {
		if seen++; seen == killAt {
			cancel()
		}
	}
	if res := runSession(t, killed); !errors.Is(res.Err, simerr.ErrCanceled) {
		t.Fatalf("killed run Err = %v, want ErrCanceled", res.Err)
	}
	req.Resume = true
	return runSession(t, req)
}

// sameSnapshots requires dirs a and b to hold the same snapshot files,
// byte for byte.
func sameSnapshots(t *testing.T, a, b string) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(a, "*.wpsnap"))
	if err != nil || len(names) == 0 {
		t.Fatalf("snapshots in %s: %v, %v", a, names, err)
	}
	others, _ := filepath.Glob(filepath.Join(b, "*.wpsnap"))
	if len(others) != len(names) {
		t.Fatalf("%d snapshots against %d", len(others), len(names))
	}
	for _, name := range names {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(b, filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs", filepath.Base(name))
		}
	}
}

// cellHash is the SHA-256 over a run's result digest and the hashes of
// the snapshots in dir, in file-name order.
func cellHash(t *testing.T, res *Result, dir string) string {
	t.Helper()
	hashes := fileHashes(t, dir, "")
	names := make([]string, 0, len(hashes))
	for name := range hashes {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintln(h, goldenDigest(res))
	for _, name := range names {
		fmt.Fprintln(h, name, hashes[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPipelinedMatchesInline: running the core in two stages, the
// stream stage on a goroutine of its own, changes nothing a run reports
// or saves. For every technique on every pipeline input, at lane sizes
// 1 and 64, the run and a kill/resume chain give the same Result and
// the same snapshots byte for byte, and their result digest and
// snapshot hashes are the committed ones, which the one-goroutine
// (inline) run wrote.
func TestPipelinedMatchesInline(t *testing.T) {
	tab := readSnapshotTable(t)
	cells := map[string]string{}
	for _, w := range pipelineInputs(t) {
		for ki, k := range wrongpath.Kinds() {
			for _, lane := range []int{1, 64} {
				t.Run(fmt.Sprintf("%s/%v/lane%d", w.Name, k, lane), func(t *testing.T) {
					req := Request{Config: chaosConfig(k, lane), Workload: &w}
					req.Config.CheckpointEvery = 8_000
					run, chain := t.TempDir(), t.TempDir()
					req.Config.CheckpointDir = run
					want := runSession(t, req)
					if want.Err != nil {
						t.Fatalf("run: %v", want.Err)
					}
					req.Config.CheckpointDir = chain
					resumed := killAndResume(t, req, killIndexFor(chaosSeed, ki, lane))
					if !reflect.DeepEqual(stripWall(resumed), stripWall(want)) {
						t.Errorf("kill/resume chain diverges from the run\n got  %+v\n want %+v", stripWall(resumed), stripWall(want))
					}
					sameSnapshots(t, run, chain)
					key := fmt.Sprintf("%s/%v/lane%d", w.Name, k, lane)
					cells[key] = cellHash(t, want, run)
					if committed := tab.Cells[key]; !*update && committed != cells[key] {
						t.Errorf("cell hash %s, committed %q", cells[key], committed)
					}
				})
			}
		}
	}
	if *update {
		tab.Cells = cells
		writeSnapshotTable(t, tab)
	}
}

// memorylessWorkload builds an instance without a memory image, so the
// functional frontend panics at its first load: a source fault.
func memorylessWorkload() workloads.Workload {
	return workloads.Workload{Suite: "test", Name: "memoryless", Build: func() (*workloads.Instance, error) {
		prog, err := asm.Assemble("loop:\n    ld   a0, 0(sp)\n    j    loop\n")
		return &workloads.Instance{Prog: prog, StackTop: workloads.StandardStackTop}, err
	}}
}

// TestExecuteGoroutines: cancellation is polled at lane boundaries, and
// no goroutine watches for it. During a checkpointed, cancellable run
// the one goroutine beyond the caller's is the core's stream stage, and
// however Execute returns — a completed run, a canceled run, a policy
// panic, a source panic — the goroutine count is back to its baseline.
// Both panics, raised on the stream stage — the source's in warmup, which
// runs through the stages too — come back as ErrWorkerPanic with no
// result.
func TestExecuteGoroutines(t *testing.T) {
	bfs := gap.BFS(gap.TestParams())
	base := runtime.NumGoroutine()
	type outcome struct {
		name     string
		w        workloads.Workload
		cancelAt int // cancel at this snapshot (0 = never)
		snaps    bool
		policy   func() wrongpath.Policy
		check    func(res *Result, err error) error
	}
	clean := func(res *Result, err error) error {
		if err != nil || res.Err != nil {
			return fmt.Errorf("err %v, res.Err %v; want a clean result", err, res.Err)
		}
		return nil
	}
	canceled := func(res *Result, err error) error {
		if err != nil || !errors.Is(res.Err, simerr.ErrCanceled) {
			return fmt.Errorf("err %v, res %v; want a canceled result", err, res)
		}
		return nil
	}
	panicked := func(where string) func(*Result, error) error {
		return func(res *Result, err error) error {
			if res != nil || !errors.Is(err, simerr.ErrWorkerPanic) || !strings.Contains(err.Error(), where) {
				return fmt.Errorf("res %v, err %v; want no result and a worker panic in %s", res, err, where)
			}
			return nil
		}
	}
	for _, o := range []outcome{
		{name: "completed", w: bfs, snaps: true, check: clean},
		{name: "canceled", w: bfs, cancelAt: 2, snaps: true, check: canceled},
		{name: "policy panic", w: bfs, check: panicked("injected policy fault"),
			policy: func() wrongpath.Policy { return panicPolicy{wrongpath.New(wrongpath.Conv)} }},
		{name: "source panic", w: memorylessWorkload(), check: panicked("stream stage")},
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := chaosConfig(wrongpath.Conv, 64)
		cfg.Ctx = ctx
		cfg.PolicyFactory = o.policy
		cfg.CheckpointDir = t.TempDir()
		cfg.CheckpointEvery = 8_000
		seen := 0
		cfg.OnCheckpoint = func(uint64, string) {
			if n := runtime.NumGoroutine(); n > base+1 {
				t.Errorf("%s: %d goroutines during the run, %d before it", o.name, n, base)
			}
			if seen++; seen == o.cancelAt {
				cancel()
			}
		}
		res, _, err := Execute(Request{Config: cfg, Workload: &o.w})
		cancel()
		if err := o.check(res, err); err != nil {
			t.Errorf("%s: %v", o.name, err)
		}
		if o.snaps && seen == 0 {
			t.Errorf("%s: the run wrote no snapshot", o.name)
		}
		for i := 0; runtime.NumGoroutine() > base; i++ {
			if i == 5_000 {
				t.Fatalf("%s: %d goroutines after Execute returned, %d before it", o.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
