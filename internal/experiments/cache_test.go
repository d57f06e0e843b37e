package experiments

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resultcache"
	"repro/internal/sim"
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

// TestCellCacheCacheabilityRule: the sweep cache follows the rule both
// result caches share — store only addressable requests whose result is
// clean and not degraded, under the request fingerprint. An injected
// (Wrap) sweep stores nothing. A ladder-armed sweep caches under its
// own key: it neither serves nor is served by unarmed entries, and it
// hits on its own repeat.
func TestCellCacheCacheabilityRule(t *testing.T) {
	dir := t.TempDir()
	sweep := func(mod func(*Options)) uint64 {
		t.Helper()
		var out strings.Builder
		opt := cachedOptions(t, dir, &out)
		mod(&opt)
		r := NewRunner(opt)
		if err := r.Run("fig1"); err != nil {
			t.Fatalf("sweep: %v", err)
		}
		return r.Simulated()
	}
	entries := func() int {
		found, _ := filepath.Glob(filepath.Join(dir, "*.wpres"))
		return len(found)
	}
	injected := func(o *Options) {
		o.Base.Wrap = func(src sim.Source, _ sim.Config) sim.Source { return src }
	}
	armed := func(o *Options) { o.Base.Config.Degrade = sim.DegradePolicy{MaxRetries: 1} }
	plain := func(*Options) {}

	if sweep(injected); entries() != 0 {
		t.Fatalf("injected sweep stored %d cache entries, want 0", entries())
	}
	cells := sweep(armed)
	if cells == 0 || entries() != int(cells) {
		t.Fatalf("armed sweep simulated %d cells and stored %d entries; want every cell stored", cells, entries())
	}
	if n := sweep(plain); n != cells {
		t.Errorf("unarmed sweep simulated %d of %d cells; armed entries must not serve it", n, cells)
	}
	if n := sweep(armed); n != 0 {
		t.Errorf("repeat armed sweep simulated %d cells, want 0 (its own entries)", n)
	}
	if n := sweep(injected); n != cells {
		t.Errorf("injected sweep simulated %d of %d cells; it must never be served from the cache", n, cells)
	}
}
