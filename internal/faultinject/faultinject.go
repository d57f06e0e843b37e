// Package faultinject deterministically injects the runtime faults the
// simulator must contain and report: corrupted or truncated trace
// bytes, and a panic at a chosen instruction inside a producer. It is
// the test harness for internal/simerr's fault classes — every injector
// is a pure function of its arguments (seeded where randomness is
// wanted), so a faulted run reproduces bit-identically.
//
// The producer injector wraps any instruction source (a frontend, a
// tracefile.Reader, another injector) behind the same Next() interface
// the decoupling queue consumes.
package faultinject

import (
	"math/rand"

	"repro/internal/trace"
)

// Producer is the minimal instruction source interface (a structural
// copy of queue.Producer, avoiding a dependency on the queue package).
type Producer interface {
	Next() (trace.DynInst, bool)
}

// --- byte-level trace corruption ---

// FlipByte returns a copy of data with the byte at off XOR-flipped by
// mask (mask 0 selects 0xFF, a full flip). Offsets outside data are a
// no-op copy.
func FlipByte(data []byte, off int64, mask byte) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if mask == 0 {
		mask = 0xFF
	}
	if off >= 0 && off < int64(len(out)) {
		out[off] ^= mask
	}
	return out
}

// Truncate returns the first n bytes of data (all of it when n is past
// the end) — a mid-record cut when n lands inside a record.
func Truncate(data []byte, n int64) []byte {
	if n < 0 {
		n = 0
	}
	if n > int64(len(data)) {
		n = int64(len(data))
	}
	out := make([]byte, n)
	copy(out, data[:n])
	return out
}

// CorruptTail flips one byte in the last quarter of data, at a position
// chosen deterministically from seed — the paper-sweep fault shape: a
// trace whose prefix is valid and whose tail is damaged.
func CorruptTail(data []byte, seed int64) []byte {
	if len(data) < 4 {
		return FlipByte(data, int64(len(data))-1, 0)
	}
	lo := 3 * len(data) / 4
	rng := rand.New(rand.NewSource(seed))
	return FlipByte(data, int64(lo+rng.Intn(len(data)-lo)), 0)
}

// --- producer-level faults ---

// PanicAt wraps src so that the n-th Next call (1-based) panics with
// msg instead of producing an instruction. Calls before n pass through
// untouched.
func PanicAt(src Producer, n uint64, msg string) Producer {
	return &panicker{src: src, at: n, msg: msg}
}

type panicker struct {
	src Producer
	at  uint64
	n   uint64
	msg string
}

func (p *panicker) Next() (trace.DynInst, bool) {
	p.n++
	if p.n == p.at {
		panic("faultinject: " + p.msg) //wplint:allow-panic -- the injected fault itself; the runtime under test must contain it
	}
	return p.src.Next()
}
