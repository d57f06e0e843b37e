package experiments

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/resultcache"
	"repro/internal/workloads/gap"
	"repro/internal/workloads/specproxy"
)

func cachedOptions(t *testing.T, dir string, out *strings.Builder) Options {
	t.Helper()
	cache, err := resultcache.New(dir, 0)
	if err != nil {
		t.Fatalf("resultcache.New: %v", err)
	}
	return Options{
		GAP:   gap.Params{N: 256, Degree: 4, Seed: 7, MaxInsts: 60_000},
		Spec:  specproxy.Params{Scale: 0.01, Seed: 99},
		Out:   out,
		Cache: cache,
	}
}

// TestCellCacheSkipsResimulation: a repeated sweep over the same cell
// cache simulates nothing and prints a byte-identical report — the
// cache returns full serialized results, host wall time included, so
// no downstream formatting can tell the difference.
func TestCellCacheSkipsResimulation(t *testing.T) {
	dir := t.TempDir()
	var out1 strings.Builder
	r1 := NewRunner(cachedOptions(t, dir, &out1))
	if err := r1.Run("fig1"); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if r1.Simulated() == 0 {
		t.Fatal("first sweep simulated nothing; the test is vacuous")
	}

	// A fresh runner and a fresh cache handle: only the persistent tier
	// under dir carries over, as it would across process runs.
	var out2 strings.Builder
	r2 := NewRunner(cachedOptions(t, dir, &out2))
	if err := r2.Run("fig1"); err != nil {
		t.Fatalf("repeat sweep: %v", err)
	}
	if n := r2.Simulated(); n != 0 {
		t.Errorf("repeat sweep simulated %d cells, want 0 (all cache-served)", n)
	}
	if out1.String() != out2.String() {
		t.Errorf("cache-served report differs from the simulated one:\n--- simulated\n%s\n--- cached\n%s",
			out1.String(), out2.String())
	}
}

// TestCellCacheBypassedWithFaultLayer: an armed fault layer (here a
// watchdog that never fires) makes a cell's outcome depend on host
// timing, so the sweep must neither store nor serve cache entries.
func TestCellCacheBypassedWithFaultLayer(t *testing.T) {
	dir := t.TempDir()
	var out1 strings.Builder
	opt := cachedOptions(t, dir, &out1)
	opt.Base.Config.Watchdog = time.Minute
	r1 := NewRunner(opt)
	if err := r1.Run("fig1"); err != nil {
		t.Fatalf("first sweep: %v", err)
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "*.wpres")); len(entries) != 0 {
		t.Fatalf("fault-layer sweep stored %d cache entries, want 0", len(entries))
	}
	var out2 strings.Builder
	opt2 := cachedOptions(t, dir, &out2)
	opt2.Base.Config.Watchdog = time.Minute
	r2 := NewRunner(opt2)
	if err := r2.Run("fig1"); err != nil {
		t.Fatalf("repeat sweep: %v", err)
	}
	if r2.Simulated() == 0 {
		t.Error("fault-layer sweep served cells from the cache")
	}
}
