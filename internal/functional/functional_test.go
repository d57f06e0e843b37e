package functional_test

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// run assembles src, executes it to completion and returns the CPU.
func run(t *testing.T, src string, setup func(*mem.Memory)) *functional.CPU {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	if setup != nil {
		setup(m)
	}
	cpu := functional.New(prog, m, 0x10000)
	if _, err := cpu.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !cpu.Halted() {
		t.Fatal("program did not halt")
	}
	return cpu
}

// exitCode runs a snippet that leaves its result in a0 and exits.
func exitCode(t *testing.T, body string, setup func(*mem.Memory)) int64 {
	t.Helper()
	cpu := run(t, body+"\n    li a7, 0\n    ecall\n", setup)
	return cpu.ExitCode()
}

func TestIntegerArithmetic(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int64
	}{
		{"add", "li t0, 40\nli t1, 2\nadd a0, t0, t1", 42},
		{"sub", "li t0, 40\nli t1, 2\nsub a0, t0, t1", 38},
		{"sub-negative", "li t0, 2\nli t1, 40\nsub a0, t0, t1", -38},
		{"and", "li t0, 0xff\nli t1, 0x0f\nand a0, t0, t1", 0x0f},
		{"or", "li t0, 0xf0\nli t1, 0x0f\nor a0, t0, t1", 0xff},
		{"xor", "li t0, 0xff\nli t1, 0x0f\nxor a0, t0, t1", 0xf0},
		{"sll", "li t0, 1\nli t1, 10\nsll a0, t0, t1", 1024},
		{"srl", "li t0, -1\nli t1, 60\nsrl a0, t0, t1", 15},
		{"sra", "li t0, -64\nli t1, 4\nsra a0, t0, t1", -4},
		{"slt-true", "li t0, -1\nli t1, 1\nslt a0, t0, t1", 1},
		{"slt-false", "li t0, 1\nli t1, -1\nslt a0, t0, t1", 0},
		{"sltu", "li t0, -1\nli t1, 1\nsltu a0, t0, t1", 0}, // -1 unsigned is max
		{"addi", "li t0, 5\naddi a0, t0, -3", 2},
		{"andi", "li t0, 0xff\nandi a0, t0, 0x3c", 0x3c},
		{"slli", "li t0, 3\nslli a0, t0, 4", 48},
		{"srai", "li t0, -16\nsrai a0, t0, 2", -4},
		{"slti", "li t0, -5\nslti a0, t0, 0", 1},
		{"sltiu", "li t0, 3\nsltiu a0, t0, 9", 1},
		{"lui", "lui a0, 3", 3 << 12},
		{"mul", "li t0, -7\nli t1, 6\nmul a0, t0, t1", -42},
		{"div", "li t0, -42\nli t1, 5\ndiv a0, t0, t1", -8},
		{"rem", "li t0, -42\nli t1, 5\nrem a0, t0, t1", -2},
		{"divu", "li t0, 42\nli t1, 5\ndivu a0, t0, t1", 8},
		{"remu", "li t0, 42\nli t1, 5\nremu a0, t0, t1", 2},
		{"div-by-zero", "li t0, 42\nli t1, 0\ndiv a0, t0, t1", -1},
		{"rem-by-zero", "li t0, 42\nli t1, 0\nrem a0, t0, t1", 42},
		{"divu-by-zero", "li t0, 42\nli t1, 0\ndivu a0, t0, t1", -1}, // MaxUint64
		{"remu-by-zero", "li t0, 42\nli t1, 0\nremu a0, t0, t1", 42},
		{"x0-write-discarded", "li zero, 99\nmv a0, zero", 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exitCode(t, c.body, nil); got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestDivOverflow(t *testing.T) {
	body := `
    li t0, 1
    slli t0, t0, 63       # MinInt64
    li t1, -1
    div a0, t0, t1
`
	if got := exitCode(t, body, nil); got != math.MinInt64 {
		t.Errorf("MinInt64/-1 = %d", got)
	}
	body = `
    li t0, 1
    slli t0, t0, 63
    li t1, -1
    rem a0, t0, t1
`
	if got := exitCode(t, body, nil); got != 0 {
		t.Errorf("MinInt64 rem -1 = %d", got)
	}
}

func TestMulh(t *testing.T) {
	f := func(a, b int64) bool {
		prog := asm.MustAssemble(`
    ld t0, 0(zero)
    ld t1, 8(zero)
    mulh a0, t0, t1
    li a7, 0
    ecall`)
		m := mem.New()
		m.WriteUint64(0, uint64(a))
		m.WriteUint64(8, uint64(b))
		cpu := functional.New(prog, m, 0)
		if _, err := cpu.Run(100); err != nil {
			t.Fatal(err)
		}
		// Reference via big-int-free 128-bit multiply using math/bits
		// semantics: compute with four 32-bit limbs in Go directly.
		hi := mulhRef(a, b)
		return cpu.ExitCode() == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// mulhRef computes the high 64 bits of the signed product using
// unsigned decomposition.
func mulhRef(a, b int64) int64 {
	au, bu := uint64(a), uint64(b)
	ahi, alo := au>>32, au&0xffffffff
	bhi, blo := bu>>32, bu&0xffffffff
	t := alo * blo
	k := t >> 32
	t1 := ahi*blo + k
	w1, w2 := t1&0xffffffff, t1>>32
	t2 := alo*bhi + w1
	hi := ahi*bhi + w2 + t2>>32
	if a < 0 {
		hi -= bu
	}
	if b < 0 {
		hi -= au
	}
	return int64(hi)
}

func TestLoadsStores(t *testing.T) {
	setup := func(m *mem.Memory) {
		m.WriteUint64(0x100, 0xfedcba9876543210)
	}
	cases := []struct {
		name string
		body string
		want int64
	}{
		{"ld", "li t0, 0x100\nld a0, 0(t0)", -81985529216486896}, // 0xfedcba9876543210
		{"lw-sign", "li t0, 0x100\nlw a0, 4(t0)", -19088744},     // 0xfedcba98 sign-extended
		{"lwu", "li t0, 0x100\nlwu a0, 4(t0)", 0xfedcba98},
		{"lh-sign", "li t0, 0x100\nlh a0, 6(t0)", -292}, // 0xfedc sign-extended
		{"lhu", "li t0, 0x100\nlhu a0, 6(t0)", 0xfedc},
		{"lb-sign", "li t0, 0x100\nlb a0, 7(t0)", -2}, // 0xfe sign-extended
		{"lbu", "li t0, 0x100\nlbu a0, 7(t0)", 0xfe},
		{"store-load", "li t0, 0x200\nli t1, -7\nsd t1, 0(t0)\nld a0, 0(t0)", -7},
		{"sw-truncates", "li t0, 0x200\nli t1, -1\nsw t1, 0(t0)\nld a0, 0(t0)", 0xffffffff},
		{"sb", "li t0, 0x200\nli t1, 0x1ff\nsb t1, 0(t0)\nlbu a0, 0(t0)", 0xff},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exitCode(t, c.body, setup); got != c.want {
				t.Errorf("got %#x, want %#x", got, c.want)
			}
		})
	}
}

func TestFloatingPoint(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int64
	}{
		{"fadd", "li t0, 3\nfcvt.d.l f0, t0\nli t0, 4\nfcvt.d.l f1, t0\nfadd f2, f0, f1\nfcvt.l.d a0, f2", 7},
		{"fsub", "li t0, 3\nfcvt.d.l f0, t0\nli t0, 4\nfcvt.d.l f1, t0\nfsub f2, f0, f1\nfcvt.l.d a0, f2", -1},
		{"fmul", "li t0, 6\nfcvt.d.l f0, t0\nli t0, 7\nfcvt.d.l f1, t0\nfmul f2, f0, f1\nfcvt.l.d a0, f2", 42},
		{"fdiv", "li t0, 42\nfcvt.d.l f0, t0\nli t0, 6\nfcvt.d.l f1, t0\nfdiv f2, f0, f1\nfcvt.l.d a0, f2", 7},
		{"fsqrt", "li t0, 81\nfcvt.d.l f0, t0\nfsqrt f1, f0\nfcvt.l.d a0, f1", 9},
		{"fmin", "li t0, 3\nfcvt.d.l f0, t0\nli t0, -5\nfcvt.d.l f1, t0\nfmin f2, f0, f1\nfcvt.l.d a0, f2", -5},
		{"fmax", "li t0, 3\nfcvt.d.l f0, t0\nli t0, -5\nfcvt.d.l f1, t0\nfmax f2, f0, f1\nfcvt.l.d a0, f2", 3},
		{"fneg", "li t0, 9\nfcvt.d.l f0, t0\nfneg f1, f0\nfcvt.l.d a0, f1", -9},
		{"fabs", "li t0, -9\nfcvt.d.l f0, t0\nfabs f1, f0\nfcvt.l.d a0, f1", 9},
		{"fmadd", "li t0, 3\nfcvt.d.l f0, t0\nli t0, 4\nfcvt.d.l f1, t0\nli t0, 5\nfcvt.d.l f2, t0\nfmadd f3, f0, f1, f2\nfcvt.l.d a0, f3", 17},
		{"feq-true", "li t0, 2\nfcvt.d.l f0, t0\nfcvt.d.l f1, t0\nfeq a0, f0, f1", 1},
		{"flt", "li t0, 2\nfcvt.d.l f0, t0\nli t0, 3\nfcvt.d.l f1, t0\nflt a0, f0, f1", 1},
		{"fle", "li t0, 3\nfcvt.d.l f0, t0\nfcvt.d.l f1, t0\nfle a0, f0, f1", 1},
		{"fmv.d", "li t0, 12\nfcvt.d.l f0, t0\nfmv.d f1, f0\nfcvt.l.d a0, f1", 12},
		{"fcvt-trunc", "li t0, 7\nfcvt.d.l f0, t0\nli t0, 2\nfcvt.d.l f1, t0\nfdiv f2, f0, f1\nfcvt.l.d a0, f2", 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := exitCode(t, c.body, nil); got != c.want {
				t.Errorf("got %d, want %d", got, c.want)
			}
		})
	}
}

func TestFPBitMoves(t *testing.T) {
	// fmv.d.x / fmv.x.d move raw bits.
	body := `
    li t0, 0x7ff8000000000001
    fmv.d.x f0, t0
    fmv.x.d a0, f0
`
	if got := exitCode(t, body, nil); got != 0x7ff8000000000001 {
		t.Errorf("bit move round trip = %#x", got)
	}
}

func TestFPMemory(t *testing.T) {
	body := `
    li t0, 3
    fcvt.d.l f0, t0
    li t1, 0x400
    fsd f0, 0(t1)
    fld f1, 0(t1)
    fcvt.l.d a0, f1
`
	if got := exitCode(t, body, nil); got != 3 {
		t.Errorf("fsd/fld round trip = %d", got)
	}
}

func TestBranches(t *testing.T) {
	cases := []struct {
		op       string
		a, b     int64
		expectTk bool
	}{
		{"beq", 1, 1, true}, {"beq", 1, 2, false},
		{"bne", 1, 2, true}, {"bne", 2, 2, false},
		{"blt", -1, 1, true}, {"blt", 1, -1, false},
		{"bge", 1, -1, true}, {"bge", -1, 1, false}, {"bge", 2, 2, true},
		{"bltu", 1, 2, true}, {"bltu", -1, 1, false}, // -1 is huge unsigned
		{"bgeu", -1, 1, true}, {"bgeu", 1, 2, false},
	}
	for _, c := range cases {
		body := `
    li t0, ` + itoa(c.a) + `
    li t1, ` + itoa(c.b) + `
    li a0, 0
    ` + c.op + ` t0, t1, taken
    j done
taken:
    li a0, 1
done:
`
		want := int64(0)
		if c.expectTk {
			want = 1
		}
		if got := exitCode(t, body, nil); got != want {
			t.Errorf("%s %d,%d: taken=%d, want %d", c.op, c.a, c.b, got, want)
		}
	}
}

func itoa(v int64) string {
	if v == -1 {
		return "-1"
	}
	digits := ""
	neg := v < 0
	if neg {
		v = -v
	}
	if v == 0 {
		return "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	if neg {
		return "-" + digits
	}
	return digits
}

func TestCallReturn(t *testing.T) {
	body := `
    li   a0, 5
    call double
    call double
    j    fin
double:
    add  a0, a0, a0
    ret
fin:
`
	if got := exitCode(t, body, nil); got != 20 {
		t.Errorf("nested call/ret = %d", got)
	}
}

func TestJalrIndirect(t *testing.T) {
	body := `
    la   t0, target
    jalr ra, t0, 0
    j    fin
target:
    li   a0, 99
    ret
fin:
`
	if got := exitCode(t, body, nil); got != 99 {
		t.Errorf("indirect call = %d", got)
	}
}

func TestSyscallOutput(t *testing.T) {
	cpu := run(t, `
    li a0, -42
    li a7, 1
    ecall
    li a0, 88          # 'X'
    li a7, 2
    ecall
    li t0, 5
    fcvt.d.l f10, t0
    li a7, 3
    ecall
    li a0, 7
    li a7, 0
    ecall
`, nil)
	want := "-42\nX5\n"
	if string(cpu.Output) != want {
		t.Errorf("output = %q, want %q", cpu.Output, want)
	}
	if cpu.ExitCode() != 7 {
		t.Errorf("exit = %d", cpu.ExitCode())
	}
}

func TestErrors(t *testing.T) {
	prog := asm.MustAssemble("nop")
	cpu := functional.New(prog, mem.New(), 0)
	var di trace.DynInst
	if err := cpu.Step(&di); err != nil {
		t.Fatal(err)
	}
	// PC walked off the program.
	if err := cpu.Step(&di); !errors.Is(err, functional.ErrBadPC) {
		t.Errorf("err = %v, want ErrBadPC", err)
	}

	prog = asm.MustAssemble("li a7, 999\necall")
	cpu = functional.New(prog, mem.New(), 0)
	cpu.Step(&di)
	if err := cpu.Step(&di); !errors.Is(err, functional.ErrBadSyscall) {
		t.Errorf("err = %v, want ErrBadSyscall", err)
	}

	prog = asm.MustAssemble("li a7, 0\necall")
	cpu = functional.New(prog, mem.New(), 0)
	cpu.Step(&di)
	cpu.Step(&di)
	if err := cpu.Step(&di); !errors.Is(err, functional.ErrHalted) {
		t.Errorf("err = %v, want ErrHalted", err)
	}
}

func TestDynInstRecords(t *testing.T) {
	prog := asm.MustAssemble(`
    li  t0, 0x80
    ld  t1, 8(t0)
    sd  t1, 16(t0)
    beq t1, zero, skip
    nop
skip:
    nop
`)
	cpu := functional.New(prog, mem.New(), 0)
	var di trace.DynInst
	cpu.Step(&di) // li
	if di.PC != prog.Base || di.NextPC != prog.Base+4 || di.HasAddr {
		t.Errorf("li record wrong: %+v", di)
	}
	cpu.Step(&di) // ld
	if !di.HasAddr || di.MemAddr != 0x88 {
		t.Errorf("ld record wrong: %+v", di)
	}
	cpu.Step(&di) // sd
	if !di.HasAddr || di.MemAddr != 0x90 {
		t.Errorf("sd record wrong: %+v", di)
	}
	cpu.Step(&di) // beq (t1 == 0, taken)
	if !di.Taken || di.NextPC != prog.MustSymbol("skip") {
		t.Errorf("beq record wrong: %+v", di)
	}
	if cpu.PC() != prog.MustSymbol("skip") {
		t.Error("branch not followed")
	}
}

// TestStepOverwritesEveryField pins Step's write rule: the record is
// zeroed in place and then assigned field by field, so a slot reused
// from an earlier record (a queue or wrong-path ring slot) comes out
// byte-identical to a fresh one. Two CPUs run the same program in
// lockstep, one stepping into a zeroed record and one into a record
// filled with 0xFF bytes before every step.
func TestStepOverwritesEveryField(t *testing.T) {
	prog := asm.MustAssemble(`
    li   t0, 0x80             # ALU
    add  t1, t0, t0           # ALU
    ld   t2, 8(t0)            # load
    sd   t2, 16(t0)           # store
    beq  t2, zero, taken      # taken
    nop
taken:
    bne  t2, zero, taken      # not taken
    jal  ra, fn               # jal
    li   a0, 7
    li   a7, 1
    ecall                     # print
    li   a7, 0
    ecall                     # exit
fn:
    jalr zero, ra, 0          # jalr
`)
	fresh := functional.New(prog, mem.New(), 0x9000)
	reused := functional.New(prog, mem.New(), 0x9000)
	ops := map[isa.Op]bool{}
	for !fresh.Halted() {
		var want, got trace.DynInst
		raw := unsafe.Slice((*byte)(unsafe.Pointer(&got)), unsafe.Sizeof(got))
		for i := range raw {
			raw[i] = 0xFF
		}
		if err := fresh.Step(&want); err != nil {
			t.Fatal(err)
		}
		if err := reused.Step(&got); err != nil {
			t.Fatal(err)
		}
		if wantRaw := unsafe.Slice((*byte)(unsafe.Pointer(&want)), unsafe.Sizeof(want)); string(raw) != string(wantRaw) {
			t.Fatalf("pc %#x (%v): record stepped into 0xFF bytes\n% x\nwant\n% x", want.PC, want.In.Op, raw, wantRaw)
		}
		ops[want.In.Op] = true
	}
	for _, op := range []isa.Op{isa.OpAddi, isa.OpAdd, isa.OpLd, isa.OpSd, isa.OpBeq, isa.OpBne, isa.OpJal, isa.OpJalr, isa.OpEcall} {
		if !ops[op] {
			t.Errorf("program never stepped %v", op)
		}
	}
}

func TestCheckpointRestore(t *testing.T) {
	prog := asm.MustAssemble("li t0, 1\nli t0, 2\nnop")
	cpu := functional.New(prog, mem.New(), 0x9000)
	var di trace.DynInst
	cpu.Step(&di)
	cp := cpu.Checkpoint()
	pc := cpu.PC()
	cpu.Step(&di)
	if cpu.Reg(isa.T0) != 2 {
		t.Fatal("setup failed")
	}
	cpu.Restore(cp)
	if cpu.Reg(isa.T0) != 1 || cpu.PC() != pc {
		t.Error("restore did not roll back registers/PC")
	}
	if cpu.Reg(isa.SP) != 0x9000 {
		t.Error("restore corrupted sp")
	}
}

func TestWrongPathEmulate(t *testing.T) {
	prog := asm.MustAssemble(`
main:
    li   t0, 0x500
    li   t1, 7
    beq  zero, zero, correct   # always taken
# wrong path (fall-through):
    sd   t1, 0(t0)             # store must be suppressed
    ld   t2, 0(t0)
    addi t2, t2, 1
    li   a7, 0
    ecall                      # must end the wrong path
correct:
    nop
`)
	cpu := functional.New(prog, mem.New(), 0)
	var di trace.DynInst
	cpu.Step(&di) // li
	cpu.Step(&di) // li
	cpu.Step(&di)
	if !di.Taken {
		t.Fatal("branch should be taken")
	}
	before := cpu.Checkpoint()
	retired := cpu.Retired()

	wrongTarget := di.PC + isa.InstBytes // mispredicted not-taken
	wp, memOps, addrs := cpu.AppendWrongPath(nil, wrongTarget, 100)

	// The path must stop before the ecall: sd, ld, addi, li.
	if len(wp) != 4 {
		t.Fatalf("wrong path length = %d, want 4: %+v", len(wp), wp)
	}
	// The store and the load are counted as they are written, both with
	// their address.
	if memOps != 2 || addrs != 2 {
		t.Errorf("counted %d memory operations, %d with an address; want 2 and 2", memOps, addrs)
	}
	for i, d := range wp {
		if !d.WrongPath {
			t.Errorf("wp[%d] not marked wrong-path", i)
		}
	}
	if !wp[0].In.Op.IsStore() || !wp[0].HasAddr || wp[0].MemAddr != 0x500 {
		t.Errorf("wp store record wrong: %+v", wp[0])
	}
	// The suppressed store must not have touched memory: the wrong-path
	// load reads 0.
	if cpu.Mem.ReadUint64(0x500) != 0 {
		t.Error("wrong-path store leaked to memory")
	}
	// State fully restored.
	after := cpu.Checkpoint()
	if before != after {
		t.Error("architectural state not restored")
	}
	if cpu.Retired() != retired {
		t.Error("retired count changed")
	}
	if cpu.Halted() {
		t.Error("wrong-path ecall halted the CPU")
	}

	// Length cap respected.
	wp, memOps, _ = cpu.AppendWrongPath(nil, wrongTarget, 2)
	if len(wp) != 2 || memOps != 2 {
		t.Errorf("capped wrong path length = %d with %d memory operations, want 2 and 2", len(wp), memOps)
	}
	// Bad target produces an empty path.
	if wp, memOps, _ := cpu.AppendWrongPath(nil, 0xdead0000, 10); len(wp) != 0 || memOps != 0 {
		t.Errorf("bad-target wrong path length = %d", len(wp))
	}
}

func TestRegAccessors(t *testing.T) {
	prog := asm.MustAssemble("nop")
	cpu := functional.New(prog, mem.New(), 0)
	cpu.SetReg(isa.A0, 42)
	if cpu.Reg(isa.A0) != 42 {
		t.Error("SetReg/Reg failed")
	}
	cpu.SetReg(isa.X0, 99)
	if cpu.Reg(isa.X0) != 0 {
		t.Error("x0 write not discarded")
	}
	cpu.SetFReg(isa.F(3), 2.5)
	if cpu.FReg(isa.F(3)) != 2.5 {
		t.Error("SetFReg/FReg failed")
	}
	defer func() {
		if recover() == nil {
			t.Error("Reg(fp) should panic")
		}
	}()
	cpu.Reg(isa.F(0))
}
