package frontend

import "repro/internal/checkpoint"

// snapshotVersion stamps this package's snapshot section; bump it when
// the walked field set changes.
const snapshotVersion = 1

// State walks the production cursor, the emulation statistics, the
// wpemul predictor copy (presence-flagged: a load into a frontend built
// with another wpemul setting fails as a typed decode fault, so resume
// falls back to a fresh run instead of diverging), and the functional
// CPU underneath. The arena (wpArena/wpOff) is an allocation detail,
// not state — emulated paths already handed to the queue are walked
// with their records, and a fresh arena block produces identical bytes
// for the next one. A latched err is terminal (the run faulted), so a
// checkpointed frontend never carries one.
func (f *Frontend) State(s *checkpoint.Stream) {
	s.Section("frontend/Frontend", snapshotVersion)
	s.Uint64(&f.produced)
	s.Uint64(&f.wpEmulations)
	s.Uint64(&f.wpEmulated)
	if s.Has(f.pred != nil) {
		f.pred.State(s)
	}
	f.cpu.State(s)
}
