// Package trace defines DynInst, the dynamic-instruction record that
// flows from the functional simulator to the performance simulator —
// the payload of the decoupling queue in functional-first simulation.
// It carries exactly the data the paper lists: instruction address,
// decoded instruction (type, input and output registers), data memory
// address, and branch outcome/target.
//
// A record is 64 bytes and holds no pointers: the 8-byte words come
// first and the five flags pack into the tail, so the garbage collector
// never scans a record buffer. Every layer writes records in place (the
// functional step, wrong-path generation, the queue ring), and writes
// them field by field: `*di = DynInst{}`, which compiles to four 16-byte
// stores into the slot, then plain field assignments. A keyed composite
// literal assigned through a pointer is built in a stack temporary
// first and copied out with 16-byte loads that straddle the
// temporary's narrower stores, so store-to-load forwarding fails on
// every record.
package trace

import "repro/internal/isa"

// DynInst is one dynamically executed (or reconstructed) instruction.
type DynInst struct {
	// Seq is the dynamic sequence number on the correct path. Emulated
	// wrong-path records carry the Seq the correct path resumes at (the
	// triggering branch's plus one); reconstructed ones carry 0.
	Seq uint64
	// PC is the instruction address.
	PC uint64
	// In is the decoded instruction.
	In isa.Inst

	// MemAddr is the effective data address for loads/stores; valid only
	// when HasAddr is true. Correct-path and functionally-emulated
	// wrong-path records always have HasAddr set for memory operations;
	// reconstructed wrong-path records only have it when the convergence
	// technique recovered the address.
	MemAddr uint64
	// NextPC is the PC of the next instruction actually executed
	// (target if taken, fall-through otherwise). For wrong-path records
	// it is the next PC along the wrong path.
	NextPC uint64

	// HasAddr marks a valid MemAddr.
	HasAddr bool
	// Recovered marks a wrong-path memory operation whose address was
	// recovered by convergence exploitation (for Table III statistics).
	Recovered bool
	// Taken is the actual direction of a conditional branch.
	Taken bool
	// WrongPath marks instructions on a speculative wrong path.
	WrongPath bool
	// Exit marks the instruction that terminated the program (the exit
	// environment call).
	Exit bool
}

// IsMem reports whether the record is a data-memory operation.
func (d *DynInst) IsMem() bool { return d.In.Op.IsMem() }

// IsControl reports whether the record can redirect the PC.
func (d *DynInst) IsControl() bool { return d.In.Op.IsControl() }

// Path is a functionally emulated wrong path as the frontend hands it
// to the core: the records, plus the memory operations among them and
// how many of those carry an address, both counted as the records were
// written so that no consumer reads the records again to count them.
type Path struct {
	Recs      []DynInst
	MemOps    uint64
	AddrKnown uint64
}
