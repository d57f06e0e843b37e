package trace

import (
	"repro/internal/checkpoint"
	"repro/internal/isa"
)

// snapshotVersion stamps the record layout (the queue frames records
// under its own section and stamps this version alongside); bump it
// when the walked field set changes.
const snapshotVersion = 2

// MinStateBytes is the encoded size of a record's State walk; every
// record walks the same fields, so it is also the largest. Count
// checks use it to bound a collection of records by the payload left.
const MinStateBytes = 8 + 8 + isa.InstStateBytes + 8 + 8 + 5

// State walks one dynamic record, including the decoded instruction.
// Records are only checkpointed in bulk (the queue's buffered records,
// the frontend's emulated wrong paths), so no per-record section
// header is written; the owner frames the batch.
func (d *DynInst) State(s *checkpoint.Stream) {
	s.Uint64(&d.Seq)
	s.Uint64(&d.PC)
	d.In.State(s)
	s.Uint64(&d.MemAddr)
	s.Uint64(&d.NextPC)
	s.Bool(&d.HasAddr)
	s.Bool(&d.Recovered)
	s.Bool(&d.Taken)
	s.Bool(&d.WrongPath)
	s.Bool(&d.Exit)
}

// SnapshotVersion exposes the record layout version even though
// DynInst itself is frameless (the queue writes many records under its
// own section): the queue stamps this version alongside its own so a
// DynInst layout change still forces a visible bump in the snapshot.
func SnapshotVersion() uint32 { return snapshotVersion }
