// Package checkpoint implements the snapshot codec for crash-safe
// checkpoint/resume: a versioned, checksummed binary container that the
// stateful simulator packages (functional, mem, queue, core, cache,
// branch, codecache, frontend, wrongpath, trace) walk their state
// through.
//
// A snapshot-capable type has one method, State(*Stream), that walks
// its fields once, in a fixed order. A saving stream (NewStream)
// appends every value it is handed; a loading stream (Open, ReadFile)
// overwrites every value with the next decoded one. Because one walk
// does both, the two directions cannot drift apart. The few rebuilds
// only a load needs (memory pages, a code-cache seen-set, a dense queue
// ring, a trace cursor) branch on Loading.
//
// Layout of a finished snapshot:
//
//	magic "WPSNAP\x00\n" | format version u32 | payload | CRC-32 (IEEE) of payload
//
// The payload is a flat little-endian stream of fixed-width values and
// length-prefixed byte strings. Every package opens its region with a
// named, versioned section marker (Stream.Section), so a load that
// drifts out of alignment — or a snapshot written by an older field
// layout — fails loudly with a typed fault instead of silently
// misinterpreting bytes. The wplint `checkpoint` analyzer requires every
// Section stamp to cite a named constant (the package's
// snapshotVersion), so adding a walked field forces a visible version
// bump.
//
// Decode errors are sticky: the first failure latches into the Stream,
// every later load yields zero values and empty collections, and the
// walk's caller checks Err once at the end.
//
// Files are written durably and atomically (a unique synced temp file,
// a rename, a directory sync), so a crash never leaves a truncated
// snapshot under the name a resume would pick up.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/simerr"
)

// FormatVersion is the container format version. Section versions (per
// package) evolve independently; this one only changes when the header
// or framing itself does.
const FormatVersion = 1

// magic identifies a snapshot file.
const magic = "WPSNAP\x00\n"

// sectionMark precedes every section header in the payload.
const sectionMark byte = 0xA5

// Stream walks a snapshot payload in one direction. A saving stream
// only reads through the pointers it is handed; a loading stream
// overwrites them.
type Stream struct {
	buf  []byte // saving: the payload so far; loading: the whole payload
	off  int    // loading: the decode cursor
	load bool
	sect string // the last section walked, for error context
	err  error
}

// NewStream returns an empty saving stream.
func NewStream() *Stream {
	return &Stream{buf: make([]byte, 0, 1<<16)}
}

// Open validates the container framing (magic, format version,
// checksum) and returns a loading stream positioned at the start of the
// payload. Every failure is a typed simerr.ErrTraceCorrupt fault: a
// snapshot that fails validation is the same fault class as a corrupt
// trace — bytes that cannot mean what they claim to mean.
func Open(data []byte) (*Stream, error) {
	min := len(magic) + 4 + 4
	if len(data) < min {
		return nil, simerr.Corrupt("opening snapshot", uint64(len(data)),
			fmt.Errorf("checkpoint: %d bytes is shorter than the %d-byte frame", len(data), min))
	}
	if string(data[:len(magic)]) != magic {
		return nil, simerr.Corrupt("opening snapshot", 0,
			fmt.Errorf("checkpoint: bad magic %q", data[:len(magic)]))
	}
	ver := binary.LittleEndian.Uint32(data[len(magic):])
	if ver != FormatVersion {
		return nil, simerr.Corrupt("opening snapshot", uint64(len(magic)),
			fmt.Errorf("checkpoint: format version %d, want %d", ver, FormatVersion))
	}
	payload := data[len(magic)+4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, simerr.Corrupt("opening snapshot", uint64(len(data)-4),
			fmt.Errorf("checkpoint: checksum %#x, want %#x", got, want))
	}
	return &Stream{buf: payload, load: true}, nil
}

// Finish frames a saving stream's payload with the magic, format
// version and checksum and returns the complete snapshot bytes. The
// stream remains usable (further walks extend the payload for a later
// Finish).
func (s *Stream) Finish() []byte {
	out := make([]byte, 0, len(magic)+4+len(s.buf)+4)
	out = append(out, magic...)
	out = binary.LittleEndian.AppendUint32(out, FormatVersion)
	out = append(out, s.buf...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(s.buf))
}

// Loading reports whether the stream overwrites the walked values.
func (s *Stream) Loading() bool { return s.load }

// Err returns the latched decode error, if any.
func (s *Stream) Err() error { return s.err }

// Fail latches cause as a typed decode fault, unless cause is nil or an
// earlier fault already latched. Walks call it for the load-time checks
// the primitives cannot see (a duplicate entry, a cursor that cannot
// seek).
func (s *Stream) Fail(cause error) {
	if cause != nil && s.err == nil {
		s.err = simerr.Corrupt("decoding snapshot", uint64(s.off), fmt.Errorf("section %q: %w", s.sect, cause))
	}
}

// take consumes the next n payload bytes of a loading stream. Past a
// latched error, or past the payload's end, it returns nil (latching).
func (s *Stream) take(n uint64) []byte {
	if s.err == nil && n > uint64(len(s.buf)-s.off) {
		s.Fail(fmt.Errorf("checkpoint: %d bytes wanted, %d left: %w", n, len(s.buf)-s.off, io.ErrUnexpectedEOF))
	}
	if s.err != nil {
		return nil
	}
	s.off += int(n)
	return s.buf[s.off-int(n) : s.off]
}

// Section walks a named, versioned section header. Every State walk
// that frames a region calls it first with its package's
// snapshotVersion constant; a load latches a typed fault on a name or
// version mismatch, so a walk never misreads another package's bytes.
func (s *Stream) Section(name string, version uint32) {
	mark, got, ver := sectionMark, name, version
	if s.Byte(&mark); mark != sectionMark {
		s.Fail(fmt.Errorf("checkpoint: expected section %q, found stray byte %#x", name, mark))
	}
	if s.String(&got); got != name {
		s.Fail(fmt.Errorf("checkpoint: section %q, want %q", got, name))
	}
	if s.Uint32(&ver); ver != version {
		s.Fail(fmt.Errorf("checkpoint: section %q version %d, want %d", name, ver, version))
	}
	s.sect = name
}

// Uint64 walks a fixed-width little-endian value.
func (s *Stream) Uint64(p *uint64) {
	if !s.load {
		s.buf = binary.LittleEndian.AppendUint64(s.buf, *p)
		return
	}
	*p = 0
	if b := s.take(8); b != nil {
		*p = binary.LittleEndian.Uint64(b)
	}
}

// Uint32 walks a fixed-width little-endian value.
func (s *Stream) Uint32(p *uint32) {
	if !s.load {
		s.buf = binary.LittleEndian.AppendUint32(s.buf, *p)
		return
	}
	*p = 0
	if b := s.take(4); b != nil {
		*p = binary.LittleEndian.Uint32(b)
	}
}

// Byte walks one byte.
func (s *Stream) Byte(p *byte) {
	if !s.load {
		s.buf = append(s.buf, *p)
		return
	}
	*p = 0
	if b := s.take(1); b != nil {
		*p = b[0]
	}
}

// Int64 walks a signed value (two's complement in a Uint64 slot).
func (s *Stream) Int64(p *int64) {
	v := uint64(*p)
	if s.Uint64(&v); s.load {
		*p = int64(v)
	}
}

// Int walks a host int (in an Int64 slot).
func (s *Stream) Int(p *int) {
	v := uint64(*p)
	if s.Uint64(&v); s.load {
		*p = int(v)
	}
}

// Bool walks a boolean as one byte.
func (s *Stream) Bool(p *bool) {
	var b byte
	if *p {
		b = 1
	}
	if s.Byte(&b); b > 1 {
		s.Fail(fmt.Errorf("checkpoint: bool byte %#x", b))
	}
	if s.load {
		*p = b == 1
	}
}

// Bytes walks a length-prefixed byte string; a load replaces *p's
// contents, reusing its capacity.
func (s *Stream) Bytes(p *[]byte) {
	n := uint64(len(*p))
	if s.Uint64(&n); s.load {
		*p = append((*p)[:0], s.take(n)...)
	} else {
		s.buf = append(s.buf, *p...)
	}
}

// String walks a length-prefixed string.
func (s *Stream) String(p *string) {
	n := uint64(len(*p))
	if s.Uint64(&n); s.load {
		*p = string(s.take(n))
	} else {
		s.buf = append(s.buf, *p...)
	}
}

// Dim walks a configuration-derived size: a table length, a ring size,
// a lookahead. A load latches a typed fault unless the snapshot was
// taken with the same value, so a resume under another configuration
// fails loudly instead of aliasing entries.
func (s *Stream) Dim(n int) {
	v := uint64(n)
	if s.Uint64(&v); v != uint64(n) {
		s.Fail(fmt.Errorf("checkpoint: snapshot size %d, configuration %d (configuration mismatch?)", v, n))
	}
}

// Has walks a configuration-derived presence flag (an optional TLB,
// TAGE, the wpemul predictor copy) and returns has, so the caller walks
// the optional part exactly when its configuration has it. A load
// latches a typed fault unless the snapshot agrees.
func (s *Stream) Has(has bool) bool {
	got := has
	if s.Bool(&got); got != has {
		s.Fail(fmt.Errorf("checkpoint: snapshot presence %v, configuration %v (configuration mismatch?)", got, has))
	}
	return has
}

// Table walks a configuration-sized byte table in place: a
// length-prefixed byte string whose length is a Dim.
func (s *Stream) Table(v []byte) {
	if s.Dim(len(v)); s.load {
		copy(v, s.take(uint64(len(v))))
	} else {
		s.buf = append(s.buf, v...)
	}
}

// Uint64s walks a configuration-sized slice in place: its length (a
// Dim), then its elements.
func (s *Stream) Uint64s(v []uint64) {
	s.Dim(len(v))
	for i := range v {
		s.Uint64(&v[i])
	}
}

// Count walks the length of a variable-size collection and returns the
// walked length, which the caller's element walk then follows. A load
// bounds it by the payload left — each element takes at least minSize
// (≥ 1) bytes — so a corrupt count latches a typed fault (and yields 0)
// instead of driving an allocation.
func (s *Stream) Count(n, minSize int) int {
	v := uint64(n)
	if s.Uint64(&v); s.load && v > uint64(len(s.buf)-s.off)/uint64(minSize) {
		s.Fail(fmt.Errorf("checkpoint: %d elements of at least %d bytes with %d bytes left", v, minSize, len(s.buf)-s.off))
	}
	if s.err != nil {
		return 0
	}
	return int(v)
}

// --- snapshot files ---

const (
	filePrefix = "ckpt-"
	fileSuffix = ".wpsnap"
	tmpSuffix  = ".tmp"
)

// FileName returns the canonical snapshot file name for an instruction
// count. Zero-padding makes lexical order equal numeric order, which is
// what Latest relies on.
func FileName(insts uint64) string {
	return fmt.Sprintf("%s%020d%s", filePrefix, insts, fileSuffix)
}

// WriteFile durably and atomically writes data to path. The bytes land
// in a temp file of their own in path's directory (a hidden name Latest
// never matches), are synced, and are renamed into place; the directory
// is synced after the rename so the new name survives a crash too.
// Concurrent writers to one path never share a temp file: the last
// rename wins and the file always holds one whole payload. On error the
// temp file is removed.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return err
	}
	err = f.Chmod(0o644)
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile opens a snapshot file as a loading stream.
func ReadFile(path string) (*Stream, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Open(data)
}

// Latest returns the path of the newest (highest instruction count)
// snapshot in dir, or "" when the directory holds none (including when
// it does not exist — a fresh run's state).
func Latest(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return "", nil
	}
	sort.Strings(names)
	return filepath.Join(dir, names[len(names)-1]), nil
}
