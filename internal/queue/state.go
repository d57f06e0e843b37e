package queue

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/trace"
)

// snapshotVersion stamps this package's snapshot section; bump it when
// the walked field set changes.
const snapshotVersion = 2

// State walks the queue's consumer-visible state: the record layout
// version, the lookahead target (a configuration cross-check: the
// buffered prefix plus the producer cursor the sim layer restores
// alongside only reproduce the run under the same fill discipline), the
// producer-exhausted flag, and the live ring contents in pop order. The
// capacity follows from the lookahead, so a full ring loads and a
// larger count is corrupt. The head index is not state: a load rewrites
// the records densely from index 0, which is observationally identical
// to the old ring for every PopBatch and PeekWindow.
func (q *Queue) State(s *checkpoint.Stream) {
	s.Section("queue/Queue", snapshotVersion)
	layout := trace.SnapshotVersion()
	if s.Uint32(&layout); layout != trace.SnapshotVersion() {
		s.Fail(fmt.Errorf("queue: snapshot record layout version %d, want %d", layout, trace.SnapshotVersion()))
	}
	s.Dim(q.lookahead)
	s.Bool(&q.done)
	n := s.Count(q.n, trace.MinStateBytes)
	if s.Loading() {
		if n > len(q.buf) {
			s.Fail(fmt.Errorf("queue: snapshot's %d buffered records exceed the ring's capacity %d", n, len(q.buf)))
			return
		}
		clear(q.buf)
		q.head, q.n = 0, n
	}
	for j := 0; j < q.n; j++ {
		q.buf[(q.head+j)&(len(q.buf)-1)].State(s)
	}
}
