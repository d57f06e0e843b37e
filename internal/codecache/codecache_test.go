package codecache

import (
	"testing"

	"repro/internal/isa"
)

func TestInsertLookup(t *testing.T) {
	c := New()
	in := isa.Inst{Op: isa.OpAdd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: isa.RegNone}
	if _, _, ok := c.LookupMeta(0x1000); ok {
		t.Error("empty cache hit")
	}
	c.InsertGet(0x1000, &in)
	got, m, ok := c.LookupMeta(0x1000)
	if !ok || *got != in || m.NSrcs != 2 {
		t.Errorf("lookup = %+v, %+v, %v", got, m, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	// Re-insert overwrites (same PC seen again).
	in2 := isa.Inst{Op: isa.OpSub, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: isa.RegNone}
	c.InsertGet(0x1000, &in2)
	if got, _, _ := c.LookupMeta(0x1000); *got != in2 {
		t.Error("re-insert did not overwrite")
	}
	if c.Len() != 1 {
		t.Error("re-insert grew the cache")
	}
}

func TestMetaOf(t *testing.T) {
	ld := isa.Inst{Op: isa.OpLd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 8}
	m := MetaOf(&ld)
	if !m.IsLoad() || !m.IsMem() || m.IsStore() || m.IsControl() {
		t.Errorf("load flags wrong: %+v", m)
	}
	if m.NSrcs != 1 || m.Srcs[0] != isa.A1 {
		t.Errorf("load sources = %v[:%d]", m.Srcs, m.NSrcs)
	}
	if !m.HasDst || m.Dst != isa.A0 {
		t.Errorf("load dest = %v,%v", m.Dst, m.HasDst)
	}
	if m.Base != isa.A1 || m.MemBytes != 8 {
		t.Errorf("load base/bytes = %v/%d", m.Base, m.MemBytes)
	}
	if m.Class != isa.OpLd.Class() {
		t.Errorf("class = %v", m.Class)
	}

	// x0 destination is architecturally discarded.
	zr := isa.Inst{Op: isa.OpAdd, Rd: isa.X0, Rs1: isa.A1, Rs2: isa.A2, Rs3: isa.RegNone}
	if m := MetaOf(&zr); m.HasDst {
		t.Error("x0 write reported as a destination")
	}

	nop := isa.Nop
	if m := MetaOf(&nop); !m.IsNop() || m.NSrcs != 0 || m.HasDst {
		t.Errorf("nop meta wrong: %+v", m)
	}

	ec := isa.Inst{Op: isa.OpEcall, Rd: isa.RegNone, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone}
	if m := MetaOf(&ec); !m.IsEcall() {
		t.Error("ecall flag missing")
	}
}

// TestMetaMatchesInst cross-checks the precomputed record against the
// isa.Inst methods it replaces, over a representative instruction mix.
func TestMetaMatchesInst(t *testing.T) {
	insts := []isa.Inst{
		{Op: isa.OpAdd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: isa.RegNone},
		{Op: isa.OpAddi, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 1},
		{Op: isa.OpLd, Rd: isa.A3, Rs1: isa.SP, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 16},
		{Op: isa.OpSd, Rd: isa.RegNone, Rs1: isa.SP, Rs2: isa.A3, Rs3: isa.RegNone, Imm: 16},
		{Op: isa.OpBeq, Rd: isa.RegNone, Rs1: isa.A0, Rs2: isa.A1, Rs3: isa.RegNone, Target: 0x40},
		{Op: isa.OpJal, Rd: isa.RA, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone, Target: 0x80},
		{Op: isa.OpJalr, Rd: isa.X0, Rs1: isa.RA, Rs2: isa.RegNone, Rs3: isa.RegNone},
		{Op: isa.OpFmadd, Rd: isa.F(0), Rs1: isa.F(1), Rs2: isa.F(2), Rs3: isa.F(3)},
		isa.Nop,
	}
	for _, in := range insts {
		in := in
		m := MetaOf(&in)
		var srcs [3]isa.Reg
		want := in.Sources(srcs[:0])
		if int(m.NSrcs) != len(want) {
			t.Errorf("%v: NSrcs = %d, want %d", in, m.NSrcs, len(want))
			continue
		}
		for i, r := range want {
			if m.Srcs[i] != r {
				t.Errorf("%v: Srcs[%d] = %v, want %v", in, i, m.Srcs[i], r)
			}
		}
		if d, ok := in.Dest(); ok != m.HasDst || (ok && d != m.Dst) {
			t.Errorf("%v: Dst = %v,%v, want %v,%v", in, m.Dst, m.HasDst, d, ok)
		}
		if b, ok := in.BaseReg(); ok != m.IsMem() || (ok && b != m.Base) {
			t.Errorf("%v: Base = %v, want %v,%v", in, m.Base, b, ok)
		}
		if in.Op.IsControl() != m.IsControl() || in.Op.IsCondBranch() != m.IsCondBranch() ||
			in.Op.IsLoad() != m.IsLoad() || in.Op.IsStore() != m.IsStore() {
			t.Errorf("%v: class flags diverge from Op predicates", in)
		}
	}
}

func TestInsertGetAndMetaFor(t *testing.T) {
	c := New()
	in := isa.Inst{Op: isa.OpLd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.RegNone, Rs3: isa.RegNone}
	m := c.InsertGet(0x2000, &in)
	if !m.IsLoad() {
		t.Fatal("InsertGet meta wrong")
	}
	if m2 := c.InsertGet(0x2000, &in); m2 != m {
		t.Error("re-insert of identical inst reclassified the entry")
	}
	// MetaFor on an unseen PC classifies without making Lookup hit.
	wp := isa.Inst{Op: isa.OpSub, Rd: isa.A2, Rs1: isa.A3, Rs2: isa.A4, Rs3: isa.RegNone}
	if m := c.MetaFor(0x3000, &wp); m.NSrcs != 2 {
		t.Errorf("MetaFor NSrcs = %d", m.NSrcs)
	}
	if _, _, ok := c.LookupMeta(0x3000); ok {
		t.Error("MetaFor made LookupMeta hit an undelivered PC")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1 (MetaFor must not count as seen)", c.Len())
	}
	// Re-inserting a different inst at the same PC overwrites the meta.
	in2 := isa.Inst{Op: isa.OpSd, Rd: isa.RegNone, Rs1: isa.A5, Rs2: isa.A0, Rs3: isa.RegNone}
	if m := c.InsertGet(0x2000, &in2); !m.IsStore() || m.Base != isa.A5 {
		t.Error("overwrite did not reclassify")
	}
}

func TestPredecode(t *testing.T) {
	prog := &isa.Program{
		Base: 0x1000,
		Insts: []isa.Inst{
			{Op: isa.OpAddi, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.RegNone, Rs3: isa.RegNone, Imm: 1},
			{Op: isa.OpBeq, Rd: isa.RegNone, Rs1: isa.A0, Rs2: isa.A1, Rs3: isa.RegNone, Target: 0x1000},
		},
	}
	c := New()
	c.Predecode(prog)
	// Predecoded entries must still miss: reconstruction may only replay
	// instructions the functional simulator has delivered.
	if _, _, ok := c.LookupMeta(0x1000); ok {
		t.Error("predecoded entry hit before delivery")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after predecode, want 0", c.Len())
	}
	in := prog.Insts[0]
	c.InsertGet(0x1000, &in)
	if got, _, ok := c.LookupMeta(0x1000); !ok || *got != in {
		t.Error("delivered entry missing after predecode")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	c.Predecode(nil) // must be a no-op
}

// TestUnalignedPCs exercises the slow-path map for trace-supplied PCs
// that are not instruction-aligned.
func TestUnalignedPCs(t *testing.T) {
	c := New()
	a := isa.Inst{Op: isa.OpAdd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: isa.RegNone}
	b := isa.Inst{Op: isa.OpSub, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: isa.RegNone}
	c.InsertGet(0x1001, &a)
	c.InsertGet(0x1002, &b)
	if got, _, ok := c.LookupMeta(0x1001); !ok || *got != a {
		t.Error("unaligned entry 0x1001 wrong")
	}
	if got, _, ok := c.LookupMeta(0x1002); !ok || *got != b {
		t.Error("unaligned entry 0x1002 wrong")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestPageSpread inserts across many pages to exercise MRU eviction and
// the page map.
func TestPageSpread(t *testing.T) {
	c := New()
	in := isa.Inst{Op: isa.OpAddi, Rd: isa.A0, Rs1: isa.A0, Rs2: isa.RegNone, Rs3: isa.RegNone}
	const stride = 4 * pageSize // one entry per page
	for i := uint64(0); i < 8; i++ {
		c.InsertGet(0x10000+i*stride, &in)
	}
	for i := uint64(0); i < 8; i++ {
		if _, _, ok := c.LookupMeta(0x10000 + i*stride); !ok {
			t.Errorf("entry on page %d lost", i)
		}
	}
	if c.Len() != 8 {
		t.Errorf("Len = %d, want 8", c.Len())
	}
}
