package trace

import (
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/isa"
)

func TestPredicates(t *testing.T) {
	none := isa.RegNone
	ld := DynInst{In: isa.Inst{Op: isa.OpLd, Rd: isa.A0, Rs1: isa.A1, Rs2: none, Rs3: none}}
	if !ld.IsMem() || ld.IsControl() {
		t.Error("load predicates wrong")
	}
	br := DynInst{In: isa.Inst{Op: isa.OpBne, Rd: none, Rs1: isa.A0, Rs2: isa.A1, Rs3: none}}
	if br.IsMem() || !br.IsControl() {
		t.Error("branch predicates wrong")
	}
	jr := DynInst{In: isa.Inst{Op: isa.OpJalr, Rd: isa.X0, Rs1: isa.RA, Rs2: none, Rs3: none}}
	if !jr.IsControl() {
		t.Error("jalr not control")
	}
	add := DynInst{In: isa.Inst{Op: isa.OpAdd, Rd: isa.A0, Rs1: isa.A1, Rs2: isa.A2, Rs3: none}}
	if add.IsMem() || add.IsControl() {
		t.Error("alu predicates wrong")
	}
}

// TestDynInstLayout pins the record at 64 bytes with no pointers: the
// queue ring and the wrong-path ring then hold nothing the garbage
// collector scans, and a record copy stays inline.
func TestDynInstLayout(t *testing.T) {
	if got := unsafe.Sizeof(DynInst{}); got != 64 {
		t.Errorf("DynInst is %d bytes, want 64", got)
	}
	if hasPointers(reflect.TypeOf(DynInst{})) {
		t.Error("DynInst holds a pointer")
	}
}

// hasPointers reports whether a value of type t contains a pointer the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	default:
		return true
	}
}
