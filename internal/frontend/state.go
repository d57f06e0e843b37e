package frontend

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/trace"
)

// snapshotVersion stamps this package's snapshot section; bump it when
// the walked field set changes.
const snapshotVersion = 2

// State walks the production cursor, the emulation statistics, the
// wpemul predictor copy and the emulated paths the core has not taken
// yet (presence-flagged: a load into a frontend built with another
// wpemul setting fails as a typed decode fault, so resume falls back to
// a fresh run instead of diverging), and the functional CPU underneath.
// The ring's slot layout is not state, nor are the paths the consumer
// took: a snapshot is taken while the consumer holds no lane it has not
// finished with. A set err is terminal (the run faulted), so a
// checkpointed frontend never carries one.
func (f *Frontend) State(s *checkpoint.Stream) {
	s.Section("frontend/Frontend", snapshotVersion)
	s.Uint64(&f.produced)
	s.Uint64(&f.wpEmulations)
	s.Uint64(&f.wpEmulated)
	if s.Has(f.pred != nil) {
		f.pred.State(s)
		f.paths.state(s)
	}
	f.cpu.State(s)
}

// state walks the untaken paths in FIFO order: Seq, length and
// records. A load rebuilds them from slot 0 and counts each path's
// memory operations from its records, so the counts add no bytes.
func (r *ring) state(s *checkpoint.Stream) {
	n := s.Count(r.n, 16) // a path walks at least its Seq and length
	if s.Loading() {
		r.reset()
	}
	for i := 0; i < n; i++ {
		if s.Loading() {
			r.next()
		}
		sp := &r.paths[(r.head+i)&(len(r.paths)-1)]
		s.Uint64(&sp.seq)
		k := s.Count(len(sp.recs), trace.MinStateBytes)
		if k > r.size {
			s.Fail(fmt.Errorf("frontend: snapshot wrong path of %d records exceeds the %d-record cap", k, r.size))
		}
		if s.Err() != nil {
			return
		}
		sp.recs = sp.recs[:k]
		for j := range sp.recs {
			sp.recs[j].State(s)
		}
		if s.Loading() {
			sp.memOps, sp.addrs = 0, 0
			for j := range sp.recs {
				if sp.recs[j].IsMem() {
					sp.memOps++
					if sp.recs[j].HasAddr {
						sp.addrs++
					}
				}
			}
			r.n++
		}
	}
}
