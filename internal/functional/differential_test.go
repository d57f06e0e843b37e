package functional_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/functional"
	"repro/internal/graph"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// This file differentially tests the functional simulator against an
// independent, minimal re-evaluation of the ISA semantics: random
// straight-line integer programs are executed by both and must agree on
// every register. Double-entry bookkeeping for the interpreter.

// miniState is the reference evaluator's state.
type miniState struct {
	regs [isa.NumIntRegs]uint64
}

func (s *miniState) set(r isa.Reg, v uint64) {
	if r != isa.X0 {
		s.regs[r] = v
	}
}

// eval executes one integer instruction on the reference state.
func (s *miniState) eval(in isa.Inst) {
	a, b := s.regs[in.Rs1], uint64(0)
	if in.Rs2 != isa.RegNone {
		b = s.regs[in.Rs2]
	}
	imm := uint64(in.Imm)
	switch in.Op {
	case isa.OpAdd:
		s.set(in.Rd, a+b)
	case isa.OpSub:
		s.set(in.Rd, a-b)
	case isa.OpAnd:
		s.set(in.Rd, a&b)
	case isa.OpOr:
		s.set(in.Rd, a|b)
	case isa.OpXor:
		s.set(in.Rd, a^b)
	case isa.OpSll:
		s.set(in.Rd, a<<(b&63))
	case isa.OpSrl:
		s.set(in.Rd, a>>(b&63))
	case isa.OpSra:
		s.set(in.Rd, uint64(int64(a)>>(b&63)))
	case isa.OpSlt:
		s.set(in.Rd, boolToU(int64(a) < int64(b)))
	case isa.OpSltu:
		s.set(in.Rd, boolToU(a < b))
	case isa.OpAddi:
		s.set(in.Rd, a+imm)
	case isa.OpAndi:
		s.set(in.Rd, a&imm)
	case isa.OpOri:
		s.set(in.Rd, a|imm)
	case isa.OpXori:
		s.set(in.Rd, a^imm)
	case isa.OpSlli:
		s.set(in.Rd, a<<(imm&63))
	case isa.OpSrli:
		s.set(in.Rd, a>>(imm&63))
	case isa.OpSrai:
		s.set(in.Rd, uint64(int64(a)>>(imm&63)))
	case isa.OpMul:
		s.set(in.Rd, a*b)
	case isa.OpDiv:
		switch {
		case b == 0:
			s.set(in.Rd, ^uint64(0))
		case int64(a) == math.MinInt64 && int64(b) == -1:
			s.set(in.Rd, a)
		default:
			s.set(in.Rd, uint64(int64(a)/int64(b)))
		}
	case isa.OpRem:
		switch {
		case b == 0:
			s.set(in.Rd, a)
		case int64(a) == math.MinInt64 && int64(b) == -1:
			s.set(in.Rd, 0)
		default:
			s.set(in.Rd, uint64(int64(a)%int64(b)))
		}
	default:
		panic("unexpected op in differential test: " + in.Op.String())
	}
}

func boolToU(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

var diffOps = []isa.Op{
	isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
	isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpSlt, isa.OpSltu,
	isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori,
	isa.OpSlli, isa.OpSrli, isa.OpSrai,
	isa.OpMul, isa.OpDiv, isa.OpRem,
}

// TestDifferentialRandomPrograms generates random straight-line
// programs, runs them on the functional simulator and the reference
// evaluator, and compares the full integer register file.
func TestDifferentialRandomPrograms(t *testing.T) {
	f := func(seed uint64, length uint8) bool {
		rng := graph.NewRNG(seed)
		n := int(length)%200 + 10

		// Random initial registers (x0 stays zero).
		var init [isa.NumIntRegs]uint64
		for i := 1; i < isa.NumIntRegs; i++ {
			init[i] = rng.Next()
			// Sprinkle edge values.
			switch rng.Intn(8) {
			case 0:
				init[i] = 0
			case 1:
				init[i] = ^uint64(0)
			case 2:
				init[i] = 1 << 63 // MinInt64
			}
		}

		insts := make([]isa.Inst, 0, n+1)
		for i := 0; i < n; i++ {
			op := diffOps[rng.Intn(uint64(len(diffOps)))]
			in := isa.Inst{
				Op:  op,
				Rd:  isa.Reg(rng.Intn(isa.NumIntRegs)),
				Rs1: isa.Reg(rng.Intn(isa.NumIntRegs)),
				Rs2: isa.RegNone,
				Rs3: isa.RegNone,
			}
			switch op {
			case isa.OpAddi, isa.OpAndi, isa.OpOri, isa.OpXori:
				in.Imm = int64(rng.Next())
			case isa.OpSlli, isa.OpSrli, isa.OpSrai:
				in.Imm = int64(rng.Intn(64))
			default:
				in.Rs2 = isa.Reg(rng.Intn(isa.NumIntRegs))
			}
			insts = append(insts, in)
		}
		insts = append(insts, isa.Inst{Op: isa.OpEcall, Rd: isa.RegNone, Rs1: isa.RegNone, Rs2: isa.RegNone, Rs3: isa.RegNone})

		prog := &isa.Program{Base: 0x1000, Entry: 0x1000, Insts: insts}
		cpu := functional.New(prog, mem.New(), 0)
		ref := &miniState{regs: init}
		for i := 1; i < isa.NumIntRegs; i++ {
			cpu.SetReg(isa.Reg(i), init[i])
		}
		// a7 must be the exit syscall; force it at the end by evaluating
		// the same program on both sides, then overriding a7 just before
		// the ecall. Simpler: run the straight-line part only.
		var di trace.DynInst
		for range insts[:n] {
			if err := cpu.Step(&di); err != nil {
				t.Logf("functional error: %v", err)
				return false
			}
		}
		for _, in := range insts[:n] {
			ref.eval(in)
		}
		for i := 0; i < isa.NumIntRegs; i++ {
			if cpu.Reg(isa.Reg(i)) != ref.regs[i] {
				t.Logf("seed=%d n=%d: register %v = %#x, reference %#x",
					seed, n, isa.Reg(i), cpu.Reg(isa.Reg(i)), ref.regs[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
