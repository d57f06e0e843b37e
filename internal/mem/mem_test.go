package mem

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
)

func TestZeroFill(t *testing.T) {
	m := New()
	if m.ReadUint64(0x1234) != 0 {
		t.Error("untouched memory not zero")
	}
	if m.ByteAt(0xdeadbeef) != 0 {
		t.Error("untouched byte not zero")
	}
	if m.PagesAllocated() != 0 {
		t.Error("reads allocated pages")
	}
}

func TestByteAccess(t *testing.T) {
	m := New()
	m.SetByte(10, 0xab)
	if got := m.ByteAt(10); got != 0xab {
		t.Errorf("ByteAt = %#x", got)
	}
	if m.ByteAt(11) != 0 {
		t.Error("neighbor byte modified")
	}
}

func TestWidths(t *testing.T) {
	m := New()
	m.Write(100, 0x1122334455667788, 8)
	if got := m.Read(100, 8); got != 0x1122334455667788 {
		t.Errorf("Read8 = %#x", got)
	}
	if got := m.Read(100, 4); got != 0x55667788 {
		t.Errorf("Read4 = %#x", got)
	}
	if got := m.Read(100, 2); got != 0x7788 {
		t.Errorf("Read2 = %#x", got)
	}
	if got := m.Read(100, 1); got != 0x88 {
		t.Errorf("Read1 = %#x", got)
	}
	// Little endian: byte at addr is the low byte.
	if got := m.ByteAt(100); got != 0x88 {
		t.Errorf("low byte = %#x", got)
	}
	if got := m.ByteAt(107); got != 0x11 {
		t.Errorf("high byte = %#x", got)
	}
	// Partial write leaves upper bytes intact.
	m.Write(100, 0xff, 1)
	if got := m.Read(100, 8); got != 0x11223344556677ff {
		t.Errorf("after partial write = %#x", got)
	}
}

func TestPageStraddle(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.Write(addr, 0xaabbccddeeff1122, 8)
	if got := m.Read(addr, 8); got != 0xaabbccddeeff1122 {
		t.Errorf("straddling read = %#x", got)
	}
	if m.PagesAllocated() != 2 {
		t.Errorf("pages = %d, want 2", m.PagesAllocated())
	}
	// Byte-level check across the boundary.
	if m.ByteAt(PageSize-1) != 0xff || m.ByteAt(PageSize) != 0xee {
		t.Error("bytes across page boundary wrong")
	}
}

func TestBadSizesPanic(t *testing.T) {
	m := New()
	for _, fn := range []func(){
		func() { m.Read(0, 0) },
		func() { m.Read(0, 9) },
		func() { m.Write(0, 0, 0) },
		func() { m.Write(0, 0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFloat64(t *testing.T) {
	m := New()
	for _, v := range []float64{0, 1.5, -3.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64} {
		m.WriteFloat64(64, v)
		if got := m.ReadFloat64(64); got != v {
			t.Errorf("ReadFloat64 = %v, want %v", got, v)
		}
	}
	m.WriteFloat64(64, math.NaN())
	if !math.IsNaN(m.ReadFloat64(64)) {
		t.Error("NaN round-trip failed")
	}
}

func TestBulkBytes(t *testing.T) {
	m := New()
	data := make([]byte, 3*PageSize+17)
	for i := range data {
		data[i] = byte(i * 7)
	}
	base := uint64(PageSize - 100)
	m.WriteBytes(base, data)
	got := make([]byte, len(data))
	m.ReadBytes(base, got)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], data[i])
		}
	}
	// Reading an untouched region yields zeros even mid-buffer.
	zeros := make([]byte, 64)
	m.ReadBytes(1<<40, zeros)
	for _, b := range zeros {
		if b != 0 {
			t.Fatal("untouched ReadBytes not zero")
		}
	}
}

func TestSlices(t *testing.T) {
	m := New()
	u64s := []uint64{1, 1 << 40, ^uint64(0)}
	m.WriteUint64Slice(0x100, u64s)
	for i, v := range u64s {
		if got := m.ReadUint64(0x100 + uint64(i)*8); got != v {
			t.Errorf("u64[%d] = %d", i, got)
		}
	}
	u32s := []uint32{7, 0xffffffff}
	m.WriteUint32Slice(0x200, u32s)
	for i, v := range u32s {
		if got := m.ReadUint32(0x200 + uint64(i)*4); got != v {
			t.Errorf("u32[%d] = %d", i, got)
		}
	}
	f64s := []float64{1.25, -2.5}
	m.WriteFloat64Slice(0x300, f64s)
	for i, v := range f64s {
		if got := m.ReadFloat64(0x300 + uint64(i)*8); got != v {
			t.Errorf("f64[%d] = %g", i, got)
		}
	}
}

func TestFootprint(t *testing.T) {
	m := New()
	m.SetByte(0, 1)
	m.SetByte(PageSize*10, 1)
	if m.PagesAllocated() != 2 {
		t.Errorf("pages = %d", m.PagesAllocated())
	}
	if m.Footprint() != 2*PageSize {
		t.Errorf("footprint = %d", m.Footprint())
	}
}

// TestQuickReadWrite is a property test: any write of any supported
// width at any address reads back identically (masked to the width).
func TestQuickReadWrite(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64, szSeed uint8) bool {
		addr %= 1 << 30 // keep the page map bounded
		sizes := []int{1, 2, 4, 8}
		n := sizes[int(szSeed)%len(sizes)]
		m.Write(addr, v, n)
		mask := ^uint64(0)
		if n < 8 {
			mask = (1 << uint(8*n)) - 1
		}
		return m.Read(addr, n) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDisjointWrites: writes to disjoint 8-byte cells never
// interfere.
func TestQuickDisjointWrites(t *testing.T) {
	m := New()
	shadow := map[uint64]uint64{}
	f := func(cell uint32, v uint64) bool {
		addr := uint64(cell%100_000) * 8
		m.WriteUint64(addr, v)
		shadow[addr] = v
		// Verify a few previously written cells.
		count := 0
		for a, want := range shadow {
			if m.ReadUint64(a) != want {
				return false
			}
			count++
			if count > 8 {
				break
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPageCacheMatchesMap drives random reads and writes of 1 to 8
// bytes, many straddling a page boundary, over more pages than the page
// cache has slots and at page numbers that collide in it, and compares
// every read with a byte map; halfway through it reloads the memory
// from a snapshot, which must empty the cache, and goes on.
func TestPageCacheMatchesMap(t *testing.T) {
	m := New()
	ref := map[uint64]byte{}
	rng := uint64(1)
	rand := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := 0; i < 200_000; i++ {
		if i == 100_000 {
			s := checkpoint.NewStream()
			m.State(s)
			ld, err := checkpoint.Open(s.Finish())
			if err != nil {
				t.Fatal(err)
			}
			m = New()
			m.WriteUint64(0, ^uint64(0)) // fill a cache slot the load must drop
			if m.State(ld); ld.Err() != nil {
				t.Fatal(ld.Err())
			}
			var want uint64
			for j := 0; j < 8; j++ {
				want |= uint64(ref[uint64(j)]) << (8 * j)
			}
			if got := m.ReadUint64(0); got != want {
				t.Fatalf("after the reload ReadUint64(0) = %#x, want %#x", got, want)
			}
		}
		// Pages 0..3*recentPages, every other access near a boundary.
		page := rand(3 * recentPages)
		off := rand(PageSize)
		if i%2 == 0 {
			off = PageSize - 1 - rand(8)
		}
		addr := page<<PageBits | off
		n := int(1 + rand(8))
		if rand(2) == 0 {
			v := rng
			m.Write(addr, v, n)
			for j := 0; j < n; j++ {
				ref[addr+uint64(j)] = byte(v >> (8 * j))
			}
			continue
		}
		var want uint64
		for j := 0; j < n; j++ {
			want |= uint64(ref[addr+uint64(j)]) << (8 * j)
		}
		if got := m.Read(addr, n); got != want {
			t.Fatalf("access %d: Read(%#x, %d) = %#x, want %#x", i, addr, n, got, want)
		}
	}
}
