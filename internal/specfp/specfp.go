// Package specfp computes canonical, content-addressed fingerprints. A
// fingerprint is the SHA-256 of a deterministic field rendering: the
// caller appends named fields in a fixed order and Sum hashes the
// accumulated document. Two values that render the same fields to the
// same values — regardless of how they were built — share one
// fingerprint.
//
// The package only guarantees that what was appended is hashed
// canonically; what to append is the caller's decision. The simulator
// makes that decision in exactly one place, sim.Request.Fingerprint,
// which walks the whole configuration and keeps its exclusions in one
// table (see DESIGN.md, "Result cache and submission coalescing").
//
// Every builder opens with a domain string ("sim/Request/v1") so
// unrelated fingerprint spaces can never collide and a format revision
// invalidates old content addresses instead of silently aliasing them.
package specfp

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
)

// Builder accumulates a canonical field document. Field order is part
// of the identity: callers must append fields in one fixed order.
type Builder struct {
	buf []byte
}

// New opens a builder for the given fingerprint domain. Distinct
// domains never collide even over identical fields.
func New(domain string) *Builder {
	b := &Builder{buf: make([]byte, 0, 2048)}
	b.buf = record(b.buf, domain)
	return b
}

// record appends one length-prefixed record, making the encoding
// injective: no concatenation of field names and values can alias
// another.
func record[T string | []byte](buf []byte, s T) []byte {
	buf = strconv.AppendInt(buf, int64(len(s)), 10)
	buf = append(buf, ':')
	buf = append(buf, s...)
	return append(buf, '\n')
}

// field appends a name record and a value record; value is rendered
// into a stack scratch buffer, so numeric fields do not allocate.
func (b *Builder) field(name string, value []byte) {
	b.buf = record(record(b.buf, name), value)
}

// String appends a string field.
func (b *Builder) String(name, v string) {
	b.buf = record(record(b.buf, name), v)
}

// Int64 appends a signed integer field.
func (b *Builder) Int64(name string, v int64) {
	var tmp [24]byte
	b.field(name, strconv.AppendInt(tmp[:0], v, 10))
}

// Uint64 appends an unsigned integer field.
func (b *Builder) Uint64(name string, v uint64) {
	var tmp [24]byte
	b.field(name, strconv.AppendUint(tmp[:0], v, 10))
}

// Bool appends a boolean field.
func (b *Builder) Bool(name string, v bool) {
	var tmp [8]byte
	b.field(name, strconv.AppendBool(tmp[:0], v))
}

// Float appends a float field in the shortest round-trippable form.
func (b *Builder) Float(name string, v float64) {
	var tmp [32]byte
	b.field(name, strconv.AppendFloat(tmp[:0], v, 'g', -1, 64))
}

// Sum returns the fingerprint: the lowercase hex SHA-256 of the
// accumulated document. The builder may keep accumulating; Sum only
// covers the fields appended so far.
func (b *Builder) Sum() string {
	h := sha256.Sum256(b.buf)
	return hex.EncodeToString(h[:])
}

// Valid reports whether s has the shape of a fingerprint this package
// produced: 64 lowercase hex digits. Stores use it to reject path
// components that could escape their directory.
func Valid(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
