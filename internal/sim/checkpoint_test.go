package sim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/simerr"
	"repro/internal/workloads/gap"
	"repro/internal/wrongpath"
)

// chaosSeed seeds the deterministic kill-point derivation; change it to
// explore different checkpoint boundaries.
const chaosSeed = 0x57505349_4D303821

// killIndexFor derives the 1-based checkpoint index at which a chaos
// cell is killed — pseudo-random across cells, bit-stable across runs
// (the determinism rule bans math/rand; this is a splitmix64 step).
func killIndexFor(seed uint64, kind, lane int) int {
	x := seed + uint64(kind)*0x9E3779B97F4A7C15 + uint64(lane)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x%3) + 1
}

// stripWall zeroes the only host-dependent Result field so the rest can
// be compared bit-for-bit.
func stripWall(r *Result) *Result {
	c := *r
	c.Wall = 0
	return &c
}

// chaosConfig is the shared cell configuration: a short bounded run
// with warmup (so resume must also reproduce the warmup-era state the
// snapshot carries in its caches and predictor).
func chaosConfig(k wrongpath.Kind, lane int) Config {
	cfg := Default(k)
	cfg.Core.Batch = lane
	cfg.WarmupInsts = 10_000
	cfg.MaxInsts = 40_000
	return cfg
}

// TestCheckpointResumeBitIdentical is the chaos acceptance harness: for
// every technique × lane size, run uninterrupted, then run again with
// checkpointing and cancel at a seeded pseudo-random checkpoint
// boundary, resume from the latest snapshot, and require the resumed
// Result to be bit-identical to the uninterrupted one.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	for ki, k := range wrongpath.Kinds() {
		for _, lane := range []int{1, 64} {
			t.Run(k.String()+"/lane"+map[int]string{1: "1", 64: "64"}[lane], func(t *testing.T) {
				cfg := chaosConfig(k, lane)
				base, err := Run(cfg, w.MustBuild())
				if err != nil {
					t.Fatal(err)
				}
				if base.Err != nil {
					t.Fatalf("baseline fault: %v", base.Err)
				}

				dir := t.TempDir()
				killAt := killIndexFor(chaosSeed, ki, lane)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				ccfg := cfg
				ccfg.Ctx = ctx
				ccfg.CheckpointDir = dir
				ccfg.CheckpointEvery = 8_000
				seen := 0
				ccfg.OnCheckpoint = func(insts uint64, path string) {
					if seen++; seen == killAt {
						cancel()
					}
				}
				killed, _, err := Execute(Request{Config: ccfg, Workload: &w})
				if err != nil {
					t.Fatal(err)
				}
				if !errors.Is(killed.Err, simerr.ErrCanceled) {
					t.Fatalf("killed run Err = %v, want ErrCanceled", killed.Err)
				}
				if killed.Core.Instructions >= base.Core.Instructions {
					t.Fatalf("kill at checkpoint %d did not truncate the run (%d insts)", killAt, killed.Core.Instructions)
				}

				snap, err := checkpoint.Latest(dir)
				if err != nil || snap == "" {
					t.Fatalf("no snapshot after kill: %q, %v", snap, err)
				}
				rcfg := cfg
				rcfg.CheckpointDir = dir
				rcfg.CheckpointEvery = 8_000
				resumed, restored, err := Execute(Request{Config: rcfg, Workload: &w, Resume: true})
				if err != nil {
					t.Fatal(err)
				}
				if !restored {
					t.Fatal("resume did not restore the snapshot")
				}
				if resumed.Err != nil {
					t.Fatalf("resumed fault: %v", resumed.Err)
				}
				if !reflect.DeepEqual(stripWall(base), stripWall(resumed)) {
					t.Errorf("resumed result diverges from uninterrupted run\nbase:    %+v\nresumed: %+v", stripWall(base), stripWall(resumed))
				}
			})
		}
	}
}

// TestCheckpointingDisturbsNothing: enabling snapshots must not perturb
// the simulation — a checkpointed run's Result is bit-identical to a
// plain one.
func TestCheckpointingDisturbsNothing(t *testing.T) {
	w := gap.CC(gap.TestParams())
	cfg := chaosConfig(wrongpath.ConvResolve, 64)
	plain, err := Run(cfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.CheckpointDir = t.TempDir()
	ccfg.CheckpointEvery = 5_000
	snapped, err := Run(ccfg, w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	if snapped.Err != nil {
		t.Fatalf("checkpointed run fault: %v", snapped.Err)
	}
	if !reflect.DeepEqual(stripWall(plain), stripWall(snapped)) {
		t.Errorf("checkpointing perturbed the run\nplain:   %+v\nsnapped: %+v", stripWall(plain), stripWall(snapped))
	}
	ents, err := os.ReadDir(ccfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Error("checkpointed run wrote no snapshots")
	}
}

// TestCheckpointGridStableAcrossLanes: the snapshot instants sit on the
// instruction grid, so lane size 1 and 64 write snapshots at identical
// retired-instruction counts — the property that makes a snapshot
// resumable under a different lane size.
func TestCheckpointGridStableAcrossLanes(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	grids := map[int][]uint64{}
	for _, lane := range []int{1, 64} {
		cfg := chaosConfig(wrongpath.Conv, lane)
		cfg.CheckpointDir = t.TempDir()
		cfg.CheckpointEvery = 8_000
		cfg.OnCheckpoint = func(insts uint64, path string) {
			grids[lane] = append(grids[lane], insts)
		}
		res, err := Run(cfg, w.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if len(grids[1]) == 0 || !reflect.DeepEqual(grids[1], grids[64]) {
		t.Errorf("snapshot grids differ across lane sizes: lane1=%v lane64=%v", grids[1], grids[64])
	}
}

// TestResumeAcrossLaneSizes: a snapshot written under lane size 64
// resumes under lane size 1 and still reproduces the lane-1 baseline
// exactly (lane batching is bit-exact, so the fingerprint excludes it).
func TestResumeAcrossLaneSizes(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	base, err := Run(chaosConfig(wrongpath.Conv, 1), w.MustBuild())
	if err != nil {
		t.Fatal(err)
	}
	wcfg := chaosConfig(wrongpath.Conv, 64)
	wcfg.CheckpointDir = t.TempDir()
	wcfg.CheckpointEvery = 16_000
	if res, _, err := Execute(Request{Config: wcfg, Workload: &w}); err != nil {
		t.Fatal(err)
	} else if res.Err != nil {
		t.Fatal(res.Err)
	}
	rcfg := chaosConfig(wrongpath.Conv, 1)
	rcfg.CheckpointDir = wcfg.CheckpointDir
	resumed, restored, err := Execute(Request{Config: rcfg, Workload: &w, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("cross-lane resume did not restore the snapshot")
	}
	if resumed.Err != nil {
		t.Fatal(resumed.Err)
	}
	if !reflect.DeepEqual(stripWall(base), stripWall(resumed)) {
		t.Errorf("cross-lane resume diverges\nbase:    %+v\nresumed: %+v", stripWall(base), stripWall(resumed))
	}
}

// TestResumeTraceBitIdentical: the trace frontend checkpoints its
// cursor; a killed replay resumes over a fresh reader of the same bytes
// and matches the uninterrupted replay bit-for-bit.
func TestResumeTraceBitIdentical(t *testing.T) {
	trace := recordTrace(t)
	cfg := Default(wrongpath.Conv)
	cfg.MaxInsts = 30_000
	base, _, err := Execute(Request{Config: cfg, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if base.Err != nil {
		t.Fatal(base.Err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ccfg := cfg
	ccfg.Ctx = ctx
	ccfg.CheckpointDir = dir
	ccfg.CheckpointEvery = 10_000
	ccfg.OnCheckpoint = func(insts uint64, path string) { cancel() }
	killed, _, err := Execute(Request{Config: ccfg, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(killed.Err, simerr.ErrCanceled) {
		t.Fatalf("killed trace run Err = %v, want ErrCanceled", killed.Err)
	}
	rcfg := cfg
	rcfg.CheckpointDir = dir
	resumed, restored, err := Execute(Request{Config: rcfg, Trace: trace, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if !restored {
		t.Fatal("trace resume did not restore the snapshot")
	}
	if resumed.Err != nil {
		t.Fatal(resumed.Err)
	}
	if !reflect.DeepEqual(stripWall(base), stripWall(resumed)) {
		t.Errorf("trace resume diverges\nbase:    %+v\nresumed: %+v", stripWall(base), stripWall(resumed))
	}
}

// TestResumeFingerprintMismatch: a snapshot written under one
// configuration must refuse to restore into another, as a typed
// ErrConfig fault, not silent divergence — and so must a snapshot
// written by a bare Run, which carries no input identity.
func TestResumeFingerprintMismatch(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg := chaosConfig(wrongpath.Conv, 64)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 16_000
	snap := writeSnapshots(t, Request{Config: cfg, Workload: &w})
	bad := cfg
	bad.MaxInsts = 50_000
	if err := restoreInto(t, Request{Config: bad, Workload: &w}, snap); !errors.Is(err, simerr.ErrConfig) {
		t.Fatalf("mismatched restore err = %v, want ErrConfig", err)
	}
	if err := restoreInto(t, Request{Config: cfg, Workload: &w}, snap); err != nil {
		t.Fatalf("matching restore: %v", err)
	}

	bare := cfg
	bare.CheckpointDir = t.TempDir()
	if res, err := Run(bare, w.MustBuild()); err != nil {
		t.Fatal(err)
	} else if res.Err != nil {
		t.Fatal(res.Err)
	}
	bareSnap, err := checkpoint.Latest(bare.CheckpointDir)
	if err != nil || bareSnap == "" {
		t.Fatalf("no snapshot: %q, %v", bareSnap, err)
	}
	if err := restoreInto(t, Request{Config: bare, Workload: &w}, bareSnap); !errors.Is(err, simerr.ErrConfig) {
		t.Fatalf("restore of a bare Run's snapshot err = %v, want ErrConfig", err)
	}
}

// writeSnapshots runs req to completion through Execute with its
// checkpointing configuration and returns the newest snapshot.
func writeSnapshots(t *testing.T, req Request) string {
	t.Helper()
	res, _, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	snap, err := checkpoint.Latest(req.Config.CheckpointDir)
	if err != nil || snap == "" {
		t.Fatalf("no snapshot: %q, %v", snap, err)
	}
	return snap
}

// restoreInto restores the snapshot at path into a fresh session built
// for req, as Execute builds it — the rejection point Execute relies on
// to skip a snapshot that does not belong to the run.
func restoreInto(t *testing.T, req Request, path string) error {
	t.Helper()
	cfg := req.Config
	s, src, err := req.session(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	r, err := checkpoint.ReadFile(path)
	if err != nil {
		return err
	}
	return s.Restore(r)
}

// TestResumeCorruptSnapshot: flipping one payload byte must surface a
// typed corruption fault from the checksum gate.
func TestResumeCorruptSnapshot(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	cfg := chaosConfig(wrongpath.NoWP, 64)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 16_000
	snap := writeSnapshots(t, Request{Config: cfg, Workload: &w})
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	mangled := filepath.Join(t.TempDir(), "mangled.wpsnap")
	if err := os.WriteFile(mangled, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := restoreInto(t, Request{Config: cfg, Workload: &w}, mangled); !errors.Is(err, simerr.ErrTraceCorrupt) {
		t.Fatalf("corrupt restore err = %v, want ErrTraceCorrupt", err)
	}
}

// TestCheckpointStateRoundTrip: loading a snapshot into a fresh session
// built the way Execute builds one and saving it again reproduces the
// snapshot byte for byte — every State walk loads exactly what it saves.
// It covers every technique on a GAP input and every technique but
// wpemul (which needs a functional source) on a trace input.
func TestCheckpointStateRoundTrip(t *testing.T) {
	w := gap.BFS(gap.TestParams())
	trace := recordTrace(t)
	for _, k := range wrongpath.Kinds() {
		reqs := map[string]Request{"gap": {Workload: &w}}
		if k != wrongpath.WPEmul {
			reqs["trace"] = Request{Trace: trace}
		}
		for input, req := range reqs {
			t.Run(k.String()+"/"+input, func(t *testing.T) {
				req.Config = chaosConfig(k, 64)
				req.Config.CheckpointDir = t.TempDir()
				req.Config.CheckpointEvery = 8_000
				writeSnapshots(t, req)
				snaps, err := filepath.Glob(filepath.Join(req.Config.CheckpointDir, "*.wpsnap"))
				if err != nil || len(snaps) < 2 {
					t.Fatalf("snapshots: %v, %v", snaps, err)
				}
				for _, snap := range snaps {
					data, err := os.ReadFile(snap)
					if err != nil {
						t.Fatal(err)
					}
					st, err := checkpoint.Open(data)
					if err != nil {
						t.Fatal(err)
					}
					cfg := req.Config
					s, src, err := req.session(&cfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := s.Restore(st); err != nil {
						t.Fatalf("%s: %v", filepath.Base(snap), err)
					}
					again := checkpoint.NewStream()
					insts := s.restoredInsts
					if err := s.state(again, src.(stateSource), &insts); err != nil {
						t.Fatal(err)
					}
					src.Close()
					if !bytes.Equal(again.Finish(), data) {
						t.Errorf("%s: save(load(snapshot)) differs from the snapshot", filepath.Base(snap))
					}
				}
			})
		}
	}
}
