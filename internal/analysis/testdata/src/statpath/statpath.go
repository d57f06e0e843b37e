// Package statpath is a wplint fixture: raw increments of the
// wrong-path-split statistic counters outside their approved accessors
// must be flagged; reading them and zero-resets must pass.
package statpath

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
)

// RawCacheIncrement bumps a split counter directly: flagged.
func RawCacheIncrement(l *cache.Level) {
	l.Stats.Wrong.Accesses++  // want: direct increment
	l.Stats.Correct.Misses++  // want: direct increment
	l.Stats.Wrong.Misses += 2 // want: direct increment
}

// RawHierarchyIncrement bumps the DRAM split counter directly: flagged.
func RawHierarchyIncrement(h *cache.Hierarchy) {
	h.WrongMemAccesses++ // want: direct increment
}

// RawCoreIncrement bumps the core's wrong-path counters directly:
// flagged.
func RawCoreIncrement(s *core.Stats) {
	s.WPExecuted++ // want: direct increment
	s.WPFetched++  // want: direct increment
}

// ReadsAndResets only reads counters and zero-resets whole blocks:
// passes (plain assignment is a reset, not an increment).
func ReadsAndResets(l *cache.Level, s *core.Stats) uint64 {
	total := l.Stats.Wrong.Accesses + s.WPExecuted
	l.Stats.Wrong.Accesses = 0
	l.Stats = cache.LevelStats{}
	// Non-protected counters may be incremented anywhere.
	l.Stats.Writebacks++
	return total
}

// HandMintedHandles constructs obs metric handles without a registry:
// every form is flagged — these handles never appear in a snapshot.
func HandMintedHandles() {
	c := obs.Counter{} // want: direct construction of obs.Counter
	c.Inc()
	g := &obs.Gauge{} // want: direct construction of obs.Gauge
	g.Set(1)
	h := new(obs.Gauge) // want: direct construction of obs.Gauge via new()
	h.Set(2)
	var v obs.Counter // want: value declaration of obs.Counter
	v.Inc()
}

// RegistryHandles obtains every handle from a registry: passes.
// Pointer-typed declarations are fine — they hold registry handles.
func RegistryHandles(r *obs.Registry) uint64 {
	var c *obs.Counter
	c = r.Counter(obs.Key("x_total", "wl", "tech"))
	c.Inc()
	r.Gauge("g").Set(3)
	return c.Value()
}

// BatchBoundaryPublish models the batched hot loop's publication
// discipline introduced with queue lanes: the obs handle check is
// hoisted to the lane boundary and the handle comes from a registry —
// the hoisted pattern passes. Split counters inside the drain loop
// must still go through their accessors; a raw bump per lane record is
// flagged exactly like its per-instruction ancestor.
func BatchBoundaryPublish(r *obs.Registry, s *core.Stats, lane []uint64) {
	occ := r.Gauge("queue_occupancy")
	if obsOn := occ != nil; obsOn {
		occ.Set(uint64(len(lane))) // boundary publish: passes
	}
	for range lane {
		s.WPExecuted++ // want: direct increment
	}
}

// BatchScratchHandle mints a per-batch scratch counter instead of
// drawing it from the registry: flagged even at a batch boundary — a
// hand-made handle never reaches the snapshot no matter how rarely it
// is touched.
func BatchScratchHandle(lane []uint64) {
	depth := obs.Counter{} // want: direct construction of obs.Counter
	for i := range lane {
		depth.Add(uint64(i))
	}
}
