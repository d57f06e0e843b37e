package codecache

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/isa"
)

// snapshotVersion stamps this package's snapshot section; bump it when
// the walked field set changes.
const snapshotVersion = 2

// seenEntry is one walked seen-set entry.
type seenEntry struct {
	pc uint64
	in isa.Inst
}

// State walks the seen-set, which IS simulation state: a Lookup miss
// ends a wrong-path reconstruction (§III-A), so which PCs the
// functional simulator has delivered by the checkpoint instant must
// survive a resume exactly — predecoding alone cannot recover it, and
// for trace sources there is no program to predecode at all. Entries are walked as (pc, inst) pairs in ascending
// PC order so the snapshot bytes are deterministic. A load re-inserts
// them, recomputing Meta via MetaOf; the cache is typically fresh (New,
// optionally Predecoded), and predecoded entries are upgraded in place.
func (c *Cache) State(s *checkpoint.Stream) {
	s.Section("codecache/Cache", snapshotVersion)
	var ents []seenEntry
	if !s.Loading() {
		ents = c.seenEntries()
	}
	n := s.Count(len(ents), 8+isa.InstStateBytes)
	if s.Loading() {
		ents = make([]seenEntry, n)
	}
	for i := range ents {
		se := &ents[i]
		s.Uint64(&se.pc)
		se.in.State(s)
		if !s.Loading() {
			continue
		}
		e := c.entryFor(se.pc, true)
		if e.state == entrySeen {
			s.Fail(fmt.Errorf("codecache: snapshot pc %#x already seen (duplicate entry)", se.pc))
		}
		e.in, e.meta, e.state = se.in, MetaOf(&se.in), entrySeen
		c.seen++
	}
}

// seenEntries lists the seen-set in ascending PC order (the pages and
// the unaligned fallback map together).
func (c *Cache) seenEntries() []seenEntry {
	ents := make([]seenEntry, 0, c.seen)
	for idx, p := range c.pages {
		for slot := range p.ents {
			if p.ents[slot].state == entrySeen {
				pc := ((idx << pageShift) | uint64(slot)) << 2
				ents = append(ents, seenEntry{pc: pc, in: p.ents[slot].in})
			}
		}
	}
	for pc, e := range c.slow {
		if e.state == entrySeen {
			ents = append(ents, seenEntry{pc: pc, in: e.in})
		}
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].pc < ents[j].pc })
	return ents
}
