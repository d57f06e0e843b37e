package tracefile_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/simerr"
	"repro/internal/tracefile"
)

// FuzzReader feeds arbitrary bytes to the trace decoder. The invariant
// is the fault-tolerance contract the replay pipeline relies on: the
// reader never panics and never hangs, NewReader fails only with
// ErrBadMagic or an I/O wrap, and every mid-stream decode failure is a
// typed simerr.ErrTraceCorrupt — the class a replay reports in
// Result.Err beside its valid prefix. A silently wrong replay (untyped
// error, or records past the corruption point) is the bug this hunts.
func FuzzReader(f *testing.F) {
	// Seed with real shapes: a synthetic trace covering every record
	// kind, its mutations from the deterministic corrupters, and a few
	// framing-edge cases.
	valid := writeSyntheticTrace(f)
	f.Add(valid)
	f.Add(faultinject.Truncate(valid, int64(len(valid)/2)))
	f.Add(faultinject.FlipByte(valid, 8, 0x80))
	f.Add(faultinject.FlipByte(valid, 9, 0))
	f.Add(faultinject.CorruptTail(valid, 1))
	f.Add([]byte("WPTRACE1"))
	f.Add([]byte("WPTRACE0"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := tracefile.NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, tracefile.ErrBadMagic) &&
				!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("NewReader: untyped error %v", err)
			}
			return
		}
		// Each record consumes at least one byte, so len(data) bounds the
		// stream; the cap turns a decoder hang into a test failure.
		for n := 0; ; n++ {
			if _, ok := r.Next(); !ok {
				break
			}
			if n > len(data) {
				t.Fatal("reader produced more records than input bytes")
			}
		}
		if err := r.Err(); err != nil && !errors.Is(err, simerr.ErrTraceCorrupt) {
			t.Fatalf("Err() = %v, want nil or ErrTraceCorrupt class", err)
		}
	})
}
