// Package tracefile records and replays dynamic instruction streams —
// the third kind of functional frontend the paper lists ("a trace
// interpreter (for pre-recorded instruction traces)"). A recorded trace
// replays bit-identically through the performance simulator under the
// nowp, instrec, conv and convres techniques.
//
// The paper's §III-B limitation is enforced here: "a trace frontend
// cannot implement [functional wrong-path emulation], because the trace
// only contains correct-path instructions" — the sim session layer
// rejects wrongpath.WPEmul on a trace source, whose WrongPaths is nil.
//
// Format (little-endian, varint-based):
//
//	magic "WPTRACE1"
//	per record:
//	  flags byte (bit0 hasAddr, bit1 taken, bit2 exit, bit3 nextPC!=pc+4)
//	  op, rd, rs1, rs2, rs3 bytes
//	  pc delta (zigzag varint from previous record's pc)
//	  imm (zigzag varint), target (uvarint, control ops only)
//	  memAddr (uvarint, hasAddr only), nextPC (uvarint, flag bit3 only)
package tracefile

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/isa"
	"repro/internal/simerr"
	"repro/internal/trace"
)

var magic = []byte("WPTRACE1")

// ErrBadMagic is returned for streams that are not traces.
var ErrBadMagic = errors.New("tracefile: bad magic")

const (
	flagHasAddr = 1 << iota
	flagTaken
	flagExit
	flagNextPC
)

// Writer serializes dynamic instruction records.
type Writer struct {
	w      *bufio.Writer
	lastPC uint64
	count  uint64
	buf    []byte
}

// NewWriter starts a trace on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: make([]byte, binary.MaxVarintLen64)}, nil
}

func (w *Writer) varint(v int64) error {
	n := binary.PutVarint(w.buf, v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf, v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Append writes one record.
func (w *Writer) Append(di *trace.DynInst) error {
	var flags byte
	if di.HasAddr {
		flags |= flagHasAddr
	}
	if di.Taken {
		flags |= flagTaken
	}
	if di.Exit {
		flags |= flagExit
	}
	if di.NextPC != di.PC+isa.InstBytes {
		flags |= flagNextPC
	}
	hdr := []byte{flags, byte(di.In.Op), byte(di.In.Rd), byte(di.In.Rs1), byte(di.In.Rs2), byte(di.In.Rs3)}
	if _, err := w.w.Write(hdr); err != nil {
		return err
	}
	if err := w.varint(int64(di.PC - w.lastPC)); err != nil {
		return err
	}
	w.lastPC = di.PC
	if err := w.varint(di.In.Imm); err != nil {
		return err
	}
	if di.In.Op.IsControl() {
		if err := w.uvarint(di.In.Target); err != nil {
			return err
		}
	}
	if di.HasAddr {
		if err := w.uvarint(di.MemAddr); err != nil {
			return err
		}
	}
	if flags&flagNextPC != 0 {
		if err := w.uvarint(di.NextPC); err != nil {
			return err
		}
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader replays a trace; it implements queue.Producer.
type Reader struct {
	r      *bufio.Reader
	lastPC uint64
	seq    uint64
	err    error
	done   bool
}

// NewReader opens a trace stream.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	got := make([]byte, len(magic))
	if _, err := io.ReadFull(br, got); err != nil {
		return nil, fmt.Errorf("tracefile: reading magic: %w", err)
	}
	for i := range magic {
		if got[i] != magic[i] {
			return nil, ErrBadMagic
		}
	}
	return &Reader{r: br}, nil
}

// flagMask covers every flag bit the format defines; set bits above it
// can only come from corruption.
const flagMask = flagHasAddr | flagTaken | flagExit | flagNextPC

// validReg accepts architectural registers and the RegNone sentinel.
func validReg(r isa.Reg) bool { return r.Valid() || r == isa.RegNone }

// Next returns the next record; ok is false at end of trace or on a
// corrupt stream (check Err). Only a stream ending exactly on a record
// boundary is a clean end: a partial header, a mid-record EOF, a varint
// overflow, or a decoded field no writer could have produced (unknown
// opcode, out-of-range register, undefined flag bit) all surface an
// ErrTraceCorrupt fault via Err.
func (r *Reader) Next() (trace.DynInst, bool) {
	if r.done {
		return trace.DynInst{}, false
	}
	fail := func(err error) (trace.DynInst, bool) {
		r.done = true
		r.err = simerr.Corrupt("decoding trace record", r.seq, err)
		return trace.DynInst{}, false
	}
	var hdr [6]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			// Clean end of trace: the stream stopped on a record boundary.
			r.done = true
			return trace.DynInst{}, false
		}
		return fail(err)
	}
	flags := hdr[0]
	di := trace.DynInst{
		Seq: r.seq,
		In: isa.Inst{
			Op: isa.Op(hdr[1]), Rd: isa.Reg(hdr[2]),
			Rs1: isa.Reg(hdr[3]), Rs2: isa.Reg(hdr[4]), Rs3: isa.Reg(hdr[5]),
		},
		HasAddr: flags&flagHasAddr != 0,
		Taken:   flags&flagTaken != 0,
		Exit:    flags&flagExit != 0,
	}
	if flags&^flagMask != 0 {
		return fail(fmt.Errorf("undefined flag bits %#02x", flags&^flagMask))
	}
	if !di.In.Op.Valid() {
		return fail(fmt.Errorf("unknown opcode %#02x", hdr[1]))
	}
	if !validReg(di.In.Rd) || !validReg(di.In.Rs1) || !validReg(di.In.Rs2) || !validReg(di.In.Rs3) {
		return fail(fmt.Errorf("out-of-range register in %v", hdr[2:6]))
	}
	delta, err := binary.ReadVarint(r.r)
	if err != nil {
		return fail(err)
	}
	di.PC = r.lastPC + uint64(delta)
	r.lastPC = di.PC
	if di.In.Imm, err = binary.ReadVarint(r.r); err != nil {
		return fail(err)
	}
	if di.In.Op.IsControl() {
		if di.In.Target, err = binary.ReadUvarint(r.r); err != nil {
			return fail(err)
		}
	}
	if di.HasAddr {
		if di.MemAddr, err = binary.ReadUvarint(r.r); err != nil {
			return fail(err)
		}
	}
	di.NextPC = di.PC + isa.InstBytes
	if flags&flagNextPC != 0 {
		if di.NextPC, err = binary.ReadUvarint(r.r); err != nil {
			return fail(err)
		}
	}
	r.seq++
	return di, true
}

// Err reports a stream corruption that ended replay early; it is nil
// after a clean end of trace. Corruption is typed: errors.Is(err,
// simerr.ErrTraceCorrupt) holds and the fault records the index of the
// record that failed to decode.
func (r *Reader) Err() error { return r.err }

// Pos returns the number of records decoded so far — the cursor a
// checkpoint serializes so a resume can Skip a fresh reader forward to
// the same position.
func (r *Reader) Pos() uint64 { return r.seq }

// Skip decodes and discards n records. It is the resume path's cursor
// restore: re-opening the trace and skipping to the snapshot's Pos
// leaves the reader bit-identical to the one that was checkpointed
// (decoding is stateful only through lastPC/seq, which Skip replays).
// A trace that ends — cleanly or corruptly — before n records is an
// error: the file does not match the snapshot.
func (r *Reader) Skip(n uint64) error {
	for i := uint64(0); i < n; i++ {
		if _, ok := r.Next(); !ok {
			if r.err != nil {
				return r.err
			}
			return simerr.Corrupt("skipping to snapshot cursor", r.seq,
				fmt.Errorf("tracefile: trace ended at record %d, snapshot cursor is %d", r.seq, n))
		}
	}
	return nil
}

// Producer is the minimal instruction source interface (a structural
// copy of queue.Producer, avoiding the import cycle).
type Producer interface {
	Next() (trace.DynInst, bool)
}

// Record drains a producer into the writer and returns the record
// count. It flushes the writer.
func Record(src Producer, w *Writer) (uint64, error) {
	for {
		di, ok := src.Next()
		if !ok {
			break
		}
		if err := w.Append(&di); err != nil {
			return w.Count(), err
		}
	}
	return w.Count(), w.Flush()
}
