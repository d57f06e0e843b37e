package mem

import (
	"slices"

	"repro/internal/checkpoint"
)

// snapshotVersion stamps this package's snapshot section; bump it when
// the walked field set changes.
const snapshotVersion = 1

// State walks the resident pages as (key, page) pairs in ascending key
// order, so the snapshot bytes are a deterministic function of the
// memory contents (map iteration order never leaks into the output). A
// load replaces the page map and empties the page cache.
func (m *Memory) State(s *checkpoint.Stream) {
	s.Section("mem/Memory", snapshotVersion)
	var keys []uint64
	if !s.Loading() {
		for k := range m.pages {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	n := s.Count(len(keys), 8+8+PageSize)
	if s.Loading() {
		keys = make([]uint64, n)
		m.pages = make(map[uint64]*[PageSize]byte, n)
		m.recent = [recentPages]recentPage{}
	}
	for _, k := range keys {
		s.Uint64(&k)
		p := m.pages[k]
		if p == nil {
			p = new([PageSize]byte)
			m.pages[k] = p
		}
		s.Table(p[:])
	}
}
