package cache

import "repro/internal/checkpoint"

// snapshotVersion stamps this package's snapshot sections; bump it when
// the walked field set changes.
const snapshotVersion = 1

// state walks one level's counter block.
func (s *LevelStats) state(st *checkpoint.Stream) {
	st.Uint64(&s.Correct.Accesses)
	st.Uint64(&s.Correct.Misses)
	st.Uint64(&s.Wrong.Accesses)
	st.Uint64(&s.Wrong.Misses)
	st.Uint64(&s.Writebacks)
}

// State walks one level's content (tags, valid/dirty bits, LRU stamps)
// and statistics. Geometry is configuration-derived and not walked; the
// line count is a dimension, so a resume under a different geometry
// fails loudly.
func (l *Level) State(s *checkpoint.Stream) {
	s.Section("cache/Level", snapshotVersion)
	s.Uint64(&l.useClock)
	l.Stats.state(s)
	s.Dim(len(l.lines))
	for i := range l.lines {
		ln := &l.lines[i]
		s.Uint64(&ln.tag)
		s.Bool(&ln.valid)
		s.Bool(&ln.dirty)
		s.Uint64(&ln.lastUse)
	}
}

// State walks the TLB content and statistics.
func (t *TLB) State(s *checkpoint.Stream) {
	s.Section("cache/TLB", snapshotVersion)
	s.Uint64(&t.useClock)
	t.Stats.state(s)
	s.Dim(len(t.entries))
	for i := range t.entries {
		e := &t.entries[i]
		s.Uint64(&e.vpn)
		s.Bool(&e.valid)
		s.Uint64(&e.lastUse)
	}
}

// State walks the whole hierarchy: all four levels, both TLBs
// (presence-flagged — nil means disabled by configuration), and the
// DRAM-side counters including the channel clock. A load needs a
// hierarchy built (NewHierarchy) under the same configuration.
func (h *Hierarchy) State(s *checkpoint.Stream) {
	s.Section("cache/Hierarchy", snapshotVersion)
	h.l1i.State(s)
	h.l1d.State(s)
	h.l2.State(s)
	h.llc.State(s)
	if s.Has(h.itlb != nil) {
		h.itlb.State(s)
	}
	if s.Has(h.dtlb != nil) {
		h.dtlb.State(s)
	}
	s.Uint64(&h.MemAccesses)
	s.Uint64(&h.WrongMemAccesses)
	s.Uint64(&h.Prefetches)
	s.Uint64(&h.MemQueueCycles)
	s.Uint64(&h.memNextFree)
}
