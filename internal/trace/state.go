package trace

import (
	"repro/internal/checkpoint"
	"repro/internal/isa"
)

// snapshotVersion stamps the record layout (the queue frames records
// under its own section and stamps this version alongside); bump it
// when the walked field set changes.
const snapshotVersion = 1

// MinStateBytes is the encoded size of a record without a WP excursion,
// the smallest one a State walk produces.
const MinStateBytes = 8 + 8 + isa.InstStateBytes + 8 + 3 + 8 + 2 + 8

// State walks one dynamic record, including the decoded instruction and
// any attached wpemul wrong-path excursion (recursion is one level deep
// by construction: WP records never carry WP). Records are only
// checkpointed while in flight in the decoupling queue, so no
// per-record section header is written; the queue frames the batch.
func (d *DynInst) State(s *checkpoint.Stream) {
	s.Uint64(&d.Seq)
	s.Uint64(&d.PC)
	d.In.State(s)
	s.Uint64(&d.MemAddr)
	s.Bool(&d.HasAddr)
	s.Bool(&d.Recovered)
	s.Bool(&d.Taken)
	s.Uint64(&d.NextPC)
	s.Bool(&d.WrongPath)
	s.Bool(&d.Exit)
	n := s.Count(len(d.WP), MinStateBytes)
	if s.Loading() {
		d.WP = make([]DynInst, n)
	}
	for i := range d.WP {
		d.WP[i].State(s)
	}
}

// SnapshotVersion exposes the record layout version even though
// DynInst itself is frameless (the queue writes many records under its
// own section): the queue stamps this version alongside its own so a
// DynInst layout change still forces a visible bump in the snapshot.
func SnapshotVersion() uint32 { return snapshotVersion }
