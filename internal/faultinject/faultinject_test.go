package faultinject

import (
	"bytes"
	"testing"

	"repro/internal/trace"
)

// seqSource produces instructions with ascending sequence numbers.
type seqSource struct{ n uint64 }

func (s *seqSource) Next() (trace.DynInst, bool) {
	s.n++
	return trace.DynInst{Seq: s.n, PC: 0x1000 + 4*s.n}, true
}

func TestFlipByteDeterministic(t *testing.T) {
	data := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	a := FlipByte(data, 3, 0x80)
	b := FlipByte(data, 3, 0x80)
	if !bytes.Equal(a, b) {
		t.Fatal("FlipByte not deterministic")
	}
	if a[3] != 3^0x80 {
		t.Fatalf("byte 3 = %#x, want %#x", a[3], 3^0x80)
	}
	if data[3] != 3 {
		t.Fatal("FlipByte mutated its input")
	}
	// Default mask is a full flip.
	if c := FlipByte(data, 0, 0); c[0] != 0xFF {
		t.Fatalf("full flip of 0 = %#x, want 0xff", c[0])
	}
	// Out-of-range offset is a no-op copy.
	if d := FlipByte(data, 99, 0); !bytes.Equal(d, data) {
		t.Fatal("out-of-range flip changed data")
	}
}

func TestTruncate(t *testing.T) {
	data := []byte{0, 1, 2, 3}
	if got := Truncate(data, 2); !bytes.Equal(got, []byte{0, 1}) {
		t.Fatalf("Truncate(2) = %v", got)
	}
	if got := Truncate(data, 99); !bytes.Equal(got, data) {
		t.Fatalf("Truncate past end = %v", got)
	}
	if got := Truncate(data, -1); len(got) != 0 {
		t.Fatalf("Truncate(-1) = %v", got)
	}
}

func TestCorruptTailDeterministicAndInTail(t *testing.T) {
	data := make([]byte, 100)
	a := CorruptTail(data, 7)
	b := CorruptTail(data, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("CorruptTail not deterministic for equal seeds")
	}
	diff := -1
	for i := range a {
		if a[i] != data[i] {
			if diff != -1 {
				t.Fatal("more than one byte flipped")
			}
			diff = i
		}
	}
	if diff < 75 {
		t.Fatalf("flip at %d, want last quarter (>=75)", diff)
	}
}

func TestPanicAt(t *testing.T) {
	p := PanicAt(&seqSource{}, 3, "injected")
	for i := 0; i < 2; i++ {
		if _, ok := p.Next(); !ok {
			t.Fatal("stream ended before injection point")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("third Next did not panic")
		}
	}()
	p.Next()
}
