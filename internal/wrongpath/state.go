package wrongpath

import "repro/internal/checkpoint"

// snapshotVersion stamps this package's snapshot section; bump it when
// the walked field set changes.
const snapshotVersion = 1

// State walks the policy statistics — the only persistent policy state.
// The reconstruction scratch (record buffer, walker and its RAS copy)
// is rebuilt from scratch inside every Begin call, so it never needs to
// survive a checkpoint.
func (s *Stats) State(st *checkpoint.Stream) {
	st.Section("wrongpath/Stats", snapshotVersion)
	st.Uint64(&s.Mispredicts)
	st.Uint64(&s.WPGenerated)
	st.Uint64(&s.ConvChecked)
	st.Uint64(&s.ConvDetected)
	st.Uint64(&s.ConvDistSum)
	st.Uint64(&s.ConvMatchLenSum)
	st.Uint64(&s.WPMemOps)
	st.Uint64(&s.WPAddrRecovered)
}
