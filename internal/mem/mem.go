// Package mem provides the sparse byte-addressable memory used by the
// functional simulator. Memory is organized in fixed-size pages
// allocated on first touch, so multi-gigabyte address spaces (graph
// workloads place arrays at widely separated bases) cost only what is
// actually touched.
//
// All accesses are little-endian. Reads of never-written memory return
// zeroes, matching the zero-initialized BSS behaviour workloads rely on.
package mem

import (
	"encoding/binary"
	"fmt"
	"math"
)

// PageBits is log2 of the page size.
const PageBits = 12

// PageSize is the allocation granularity in bytes.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// recentPages is the size of Memory's direct-mapped page cache.
const recentPages = 64

// Memory is a sparse paged memory. The zero value is not usable; call New.
type Memory struct {
	pages map[uint64]*[PageSize]byte

	// recent caches resident pages, direct-mapped by page number, so
	// most accesses find their page without a map lookup. A slot holds
	// its page's number plus one (zero: empty). It is derived state: a
	// load of the page map empties it. A Memory belongs to one goroutine
	// at a time; even a read may fill a slot.
	recent [recentPages]recentPage
}

// recentPage is one page-cache slot.
type recentPage struct {
	tag uint64
	p   *[PageSize]byte
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*[PageSize]byte)}
}

// PagesAllocated returns the number of resident pages (for stats/tests).
func (m *Memory) PagesAllocated() int { return len(m.pages) }

// Footprint returns the number of resident bytes.
func (m *Memory) Footprint() uint64 { return uint64(len(m.pages)) * PageSize }

// page returns the page holding addr; a missing page is allocated when
// alloc is set and nil otherwise.
func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	key := addr >> PageBits
	r := &m.recent[key%recentPages]
	if r.tag == key+1 {
		return r.p
	}
	p := m.pages[key]
	if p == nil {
		if !alloc {
			return nil
		}
		p = new([PageSize]byte)
		m.pages[key] = p
	}
	r.tag, r.p = key+1, p
	return p
}

// ByteAt reads one byte.
func (m *Memory) ByteAt(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// SetByte writes one byte.
func (m *Memory) SetByte(addr uint64, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read reads n ≤ 8 bytes starting at addr as a little-endian unsigned
// integer. Accesses may straddle page boundaries.
func (m *Memory) Read(addr uint64, n int) uint64 {
	if n <= 0 || n > 8 {
		panic(fmt.Sprintf("mem: bad read size %d", n))
	}
	off := addr & pageMask
	if int(off)+n <= PageSize {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		var buf [8]byte
		copy(buf[:n], p[off:int(off)+n])
		return binary.LittleEndian.Uint64(buf[:])
	}
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(m.ByteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write writes the low n ≤ 8 bytes of v little-endian starting at addr.
func (m *Memory) Write(addr uint64, v uint64, n int) {
	if n <= 0 || n > 8 {
		panic(fmt.Sprintf("mem: bad write size %d", n))
	}
	off := addr & pageMask
	if int(off)+n <= PageSize {
		p := m.page(addr, true)
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		copy(p[off:int(off)+n], buf[:n])
		return
	}
	for i := 0; i < n; i++ {
		m.SetByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// ReadUint64 reads an 8-byte little-endian value.
func (m *Memory) ReadUint64(addr uint64) uint64 { return m.Read(addr, 8) }

// WriteUint64 writes an 8-byte little-endian value.
func (m *Memory) WriteUint64(addr uint64, v uint64) { m.Write(addr, v, 8) }

// ReadUint32 reads a 4-byte little-endian value.
func (m *Memory) ReadUint32(addr uint64) uint32 { return uint32(m.Read(addr, 4)) }

// WriteUint32 writes a 4-byte little-endian value.
func (m *Memory) WriteUint32(addr uint64, v uint32) { m.Write(addr, uint64(v), 4) }

// ReadFloat64 reads an 8-byte IEEE-754 double.
func (m *Memory) ReadFloat64(addr uint64) float64 {
	return math.Float64frombits(m.Read(addr, 8))
}

// WriteFloat64 writes an 8-byte IEEE-754 double.
func (m *Memory) WriteFloat64(addr uint64, v float64) {
	m.Write(addr, math.Float64bits(v), 8)
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & pageMask
		n := PageSize - int(off)
		if n > len(b) {
			n = len(b)
		}
		copy(m.page(addr, true)[off:int(off)+n], b[:n])
		addr += uint64(n)
		b = b[n:]
	}
}

// ReadBytes copies len(b) bytes starting at addr into b.
func (m *Memory) ReadBytes(addr uint64, b []byte) {
	for len(b) > 0 {
		off := addr & pageMask
		n := PageSize - int(off)
		if n > len(b) {
			n = len(b)
		}
		p := m.page(addr, false)
		if p == nil {
			for i := 0; i < n; i++ {
				b[i] = 0
			}
		} else {
			copy(b[:n], p[off:int(off)+n])
		}
		addr += uint64(n)
		b = b[n:]
	}
}

// WriteUint64Slice lays out vals as consecutive 8-byte values at addr;
// the workload loaders use it to place graph arrays.
func (m *Memory) WriteUint64Slice(addr uint64, vals []uint64) {
	for i, v := range vals {
		m.WriteUint64(addr+uint64(i)*8, v)
	}
}

// WriteUint32Slice lays out vals as consecutive 4-byte values at addr.
func (m *Memory) WriteUint32Slice(addr uint64, vals []uint32) {
	for i, v := range vals {
		m.WriteUint32(addr+uint64(i)*4, v)
	}
}

// WriteFloat64Slice lays out vals as consecutive doubles at addr.
func (m *Memory) WriteFloat64Slice(addr uint64, vals []float64) {
	for i, v := range vals {
		m.WriteFloat64(addr+uint64(i)*8, v)
	}
}
