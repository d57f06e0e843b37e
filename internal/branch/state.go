package branch

import "repro/internal/checkpoint"

// snapshotVersion stamps this package's snapshot sections; bump it when
// the walked field set changes.
const snapshotVersion = 1

// State walks the complete predictor state: conditional tables, global
// history, RAS, indirect table, and TAGE (when configured).
// Config-derived masks are rebuilt by New on resume, so only the
// mutable state is walked; table sizes are configuration dimensions, so
// a load into a differently-sized predictor fails loudly instead of
// aliasing entries.
func (u *Unit) State(s *checkpoint.Stream) {
	s.Section("branch/Unit", snapshotVersion)
	s.Table(u.bimodal)
	s.Table(u.gshare)
	s.Table(u.choice)
	s.Uint64(&u.history)
	s.Uint64s(u.ras)
	s.Int(&u.rasTop)
	s.Uint64s(u.indirect)
	if s.Has(u.tage != nil) {
		u.tage.state(s)
	}
}

func (t *tage) state(s *checkpoint.Stream) {
	s.Section("branch/tage", snapshotVersion)
	s.Table(t.base)
	s.Uint64(&t.allocClock)
	for i := range t.tables {
		s.Dim(len(t.tables[i]))
		for j := range t.tables[i] {
			e := &t.tables[i][j]
			tag, ctr := uint32(e.tag), byte(e.ctr)
			s.Uint32(&tag)
			s.Byte(&ctr)
			s.Byte(&e.useful)
			s.Bool(&e.valid)
			if s.Loading() {
				e.tag, e.ctr = uint16(tag), int8(ctr)
			}
		}
	}
}
