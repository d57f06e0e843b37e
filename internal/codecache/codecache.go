// Package codecache implements the code cache the paper introduces
// between the functional and performance simulator (§III-A): a table,
// indexed by instruction address, of the decode information of every
// instruction the functional simulator has delivered so far. When the
// performance model detects a branch misprediction it reconstructs the
// wrong path out of this cache; a lookup miss ends the reconstruction
// (the simulator then falls back to halting fetch until the branch
// resolves).
//
// Beyond the raw decode bits, every entry carries a Meta record — the
// source/destination register sets, memory base register and class
// flags derived exactly once per static instruction. The core and the
// wrong-path policies consult Meta instead of re-deriving register
// sets per dynamic instance, which keeps dependence tracking off the
// per-instruction hot path.
//
// Storage is paged: 4-byte-aligned PCs (every instruction the
// assembler or functional simulator emits) index a direct-mapped array
// page covering pageSize consecutive instruction slots, with a
// two-entry MRU page cache in front of the page map. Unaligned PCs —
// possible only in hand-crafted traces — fall back to a plain map with
// identical semantics.
package codecache

import "repro/internal/isa"

// Meta is the decode-once record of one static instruction: everything
// the timing model and the wrong-path walks need per dynamic instance,
// precomputed so the hot path never re-derives it from the Inst.
type Meta struct {
	// Srcs[:NSrcs] are the source registers, in isa.Inst.Sources order
	// (x0 included — architecturally a source, always ready).
	Srcs  [3]isa.Reg
	NSrcs uint8
	// Dst is the destination register; HasDst is false when the
	// instruction writes none (x0 writes are architecturally discarded,
	// mirroring isa.Inst.Dest).
	Dst    isa.Reg
	HasDst bool
	// Base is the memory-address base register, valid when IsMem().
	Base isa.Reg
	// MemBytes is the access width of memory operations (0 otherwise).
	MemBytes uint8
	// Class is the precomputed functional-unit class of the op.
	Class isa.Class

	flags metaFlags
}

type metaFlags uint16

const (
	flagLoad metaFlags = 1 << iota
	flagStore
	flagMem
	flagControl
	flagCondBranch
	flagEcall
	flagNop
)

// IsLoad reports whether the instruction is a load.
func (m *Meta) IsLoad() bool { return m.flags&flagLoad != 0 }

// IsStore reports whether the instruction is a store.
func (m *Meta) IsStore() bool { return m.flags&flagStore != 0 }

// IsMem reports whether the instruction accesses memory.
func (m *Meta) IsMem() bool { return m.flags&flagMem != 0 }

// IsControl reports whether the instruction redirects control flow.
func (m *Meta) IsControl() bool { return m.flags&flagControl != 0 }

// IsCondBranch reports whether the instruction is a conditional branch.
func (m *Meta) IsCondBranch() bool { return m.flags&flagCondBranch != 0 }

// IsEcall reports whether the instruction is an environment call.
func (m *Meta) IsEcall() bool { return m.flags&flagEcall != 0 }

// IsNop reports whether the instruction is a no-op.
func (m *Meta) IsNop() bool { return m.flags&flagNop != 0 }

// MetaOf derives the decode-once record for one instruction. It is the
// single place the per-static classification happens; everything else
// reads the stored result.
func MetaOf(in *isa.Inst) Meta {
	var m Meta
	n := uint8(0)
	if in.Rs1 != isa.RegNone {
		m.Srcs[n] = in.Rs1
		n++
	}
	if in.Rs2 != isa.RegNone {
		m.Srcs[n] = in.Rs2
		n++
	}
	if in.Rs3 != isa.RegNone {
		m.Srcs[n] = in.Rs3
		n++
	}
	m.NSrcs = n
	m.Dst, m.HasDst = in.Dest()
	if !m.HasDst {
		m.Dst = isa.RegNone
	}
	m.Base = isa.RegNone
	op := in.Op
	m.Class = op.Class()
	switch {
	case op.IsLoad():
		m.flags |= flagLoad | flagMem
	case op.IsStore():
		m.flags |= flagStore | flagMem
	}
	if m.IsMem() {
		m.Base = in.Rs1
		m.MemBytes = uint8(op.MemBytes())
	}
	if op.IsControl() {
		m.flags |= flagControl
	}
	if op.IsCondBranch() {
		m.flags |= flagCondBranch
	}
	if op == isa.OpEcall {
		m.flags |= flagEcall
	}
	if op == isa.OpNop {
		m.flags |= flagNop
	}
	return m
}

const (
	// pageShift sets the page granule: 1<<pageShift instruction slots
	// per page (4 KB of code), small enough that tiny kernels stay in
	// one or two pages and the MRU check almost always hits.
	pageShift = 10
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

const (
	entryEmpty uint8 = iota
	// entryPredecoded: inst+meta are valid but the functional simulator
	// has not delivered this PC yet — LookupMeta must still miss, because a
	// miss is what ends wrong-path reconstruction (§III-A).
	entryPredecoded
	entrySeen
)

type entry struct {
	in    isa.Inst
	meta  Meta
	state uint8
}

type page struct {
	ents [pageSize]entry
}

type mruSlot struct {
	p   *page
	idx uint64
}

// Cache maps instruction addresses to decode information.
type Cache struct {
	pages map[uint64]*page
	mru   [2]mruSlot

	// slow holds entries for PCs that are not 4-byte aligned (possible
	// only in hand-crafted traces); semantics match the paged store.
	slow map[uint64]*entry

	seen int // entries in state entrySeen (Len)
}

// New returns an empty code cache.
func New() *Cache {
	return &Cache{pages: make(map[uint64]*page)}
}

// pageFor returns the page holding page-index idx, consulting the MRU
// pair before the map. With create false, a missing page returns nil.
func (c *Cache) pageFor(idx uint64, create bool) *page {
	if m := &c.mru[0]; m.p != nil && m.idx == idx {
		return m.p
	}
	if m := &c.mru[1]; m.p != nil && m.idx == idx {
		c.mru[0], c.mru[1] = c.mru[1], c.mru[0]
		return c.mru[0].p
	}
	p := c.pages[idx]
	if p == nil {
		if !create {
			return nil
		}
		p = &page{}
		c.pages[idx] = p
	}
	c.mru[1] = c.mru[0]
	c.mru[0] = mruSlot{p: p, idx: idx}
	return p
}

// entryFor returns the entry slot for pc; nil when absent and create
// is false.
func (c *Cache) entryFor(pc uint64, create bool) *entry {
	if pc&3 != 0 {
		e := c.slow[pc]
		if e == nil && create {
			if c.slow == nil {
				c.slow = make(map[uint64]*entry)
			}
			e = &entry{}
			c.slow[pc] = e
		}
		return e
	}
	idx := pc >> 2
	p := c.pageFor(idx>>pageShift, create)
	if p == nil {
		return nil
	}
	return &p.ents[idx&pageMask]
}

// InsertGet records the decode information for the instruction at pc
// and returns its Meta record — the consumer's combined
// insert-and-classify step for every correct-path instruction it
// consumes. The classification is computed only when the slot is new or
// the stored instruction differs (self-modifying traces).
func (c *Cache) InsertGet(pc uint64, in *isa.Inst) *Meta {
	e := c.entryFor(pc, true)
	if e.state == entrySeen {
		if e.in == *in {
			return &e.meta
		}
		e.in = *in
		e.meta = MetaOf(in)
		return &e.meta
	}
	if e.state == entryEmpty || e.in != *in {
		e.in = *in
		e.meta = MetaOf(in)
	}
	e.state = entrySeen
	c.seen++
	return &e.meta
}

// LookupMeta returns the decode information for pc if the instruction
// has been seen before, as pointers into the cached entry (valid until
// the entry is overwritten): the reconstruction walk's accessor.
// Predecoded-but-undelivered PCs miss: wrong-path reconstruction may
// only replay what the functional simulator has actually produced.
func (c *Cache) LookupMeta(pc uint64) (*isa.Inst, *Meta, bool) {
	e := c.entryFor(pc, false)
	if e == nil || e.state != entrySeen {
		return nil, nil, false
	}
	return &e.in, &e.meta, true
}

// MetaFor returns the Meta record for the instruction in at pc without
// touching the seen state — the accessor for records whose decode bits
// the caller already holds (queued correct-path peeks, emulated
// wrong-path streams). A new or mismatching slot is (re)classified in
// place.
func (c *Cache) MetaFor(pc uint64, in *isa.Inst) *Meta {
	e := c.entryFor(pc, true)
	if e.state == entryEmpty || e.in != *in {
		e.in = *in
		e.meta = MetaOf(in)
		if e.state == entryEmpty {
			e.state = entryPredecoded
		}
	}
	return &e.meta
}

// Predecode classifies every instruction of prog up front (state
// predecoded, not seen): first-delivery inserts and wrong-path MetaFor
// calls then find their records already computed. Lookup semantics are
// unchanged — predecoded entries still miss until delivered.
func (c *Cache) Predecode(prog *isa.Program) {
	if prog == nil {
		return
	}
	for i := range prog.Insts {
		pc := prog.Base + uint64(i)*isa.InstBytes
		in := prog.Insts[i]
		e := c.entryFor(pc, true)
		if e.state != entryEmpty {
			continue
		}
		e.in = in
		e.meta = MetaOf(&in)
		e.state = entryPredecoded
	}
}

// Len returns the number of distinct static instructions cached (seen;
// predecoded-only entries do not count).
func (c *Cache) Len() int { return c.seen }
