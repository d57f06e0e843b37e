package isa

import "repro/internal/checkpoint"

// InstStateBytes is the encoded size of an Inst walk.
const InstStateBytes = 5 + 8 + 8

// State walks the decoded instruction. It is frameless: snapshot
// records and code-cache entries embed it under their own sections, so
// a change to this layout must bump both trace's and codecache's
// snapshotVersion.
func (in *Inst) State(s *checkpoint.Stream) {
	s.Byte((*byte)(&in.Op))
	s.Byte((*byte)(&in.Rd))
	s.Byte((*byte)(&in.Rs1))
	s.Byte((*byte)(&in.Rs2))
	s.Byte((*byte)(&in.Rs3))
	s.Int64(&in.Imm)
	s.Uint64(&in.Target)
}
