package checkpoint_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/simerr"
)

// thing walks one value of every primitive under a section.
type thing struct {
	U64   uint64
	U32   uint32
	I64   int64
	I     int
	B     byte
	T, F  bool
	Bs    []byte
	Str   string
	Tab   []byte
	Us    []uint64
	Items []uint64
}

func (x *thing) State(s *checkpoint.Stream) {
	s.Section("test/Thing", 3)
	s.Uint64(&x.U64)
	s.Uint32(&x.U32)
	s.Int64(&x.I64)
	s.Int(&x.I)
	s.Byte(&x.B)
	s.Bool(&x.T)
	s.Bool(&x.F)
	s.Bytes(&x.Bs)
	s.String(&x.Str)
	s.Table(x.Tab)
	s.Uint64s(x.Us)
	n := s.Count(len(x.Items), 8)
	if s.Loading() {
		x.Items = make([]uint64, n)
	}
	for i := range x.Items {
		s.Uint64(&x.Items[i])
	}
}

// fresh returns a thing shaped like the configuration of x (same
// table and slice dimensions) with every walked value zeroed.
func fresh(x *thing) *thing {
	return &thing{Tab: make([]byte, len(x.Tab)), Us: make([]uint64, len(x.Us))}
}

func save(x interface{ State(*checkpoint.Stream) }) []byte {
	s := checkpoint.NewStream()
	x.State(s)
	return s.Finish()
}

func TestRoundTrip(t *testing.T) {
	want := &thing{
		U64: 0xDEADBEEF_00C0FFEE, U32: 42, I64: -7, I: -1 << 40, B: 0xA5,
		T: true, Bs: []byte{1, 2, 3}, Str: "wrong path",
		Tab: []byte{9, 8}, Us: []uint64{7, 6, 5}, Items: []uint64{4, 3},
	}
	data := save(want)
	s, err := checkpoint.Open(data)
	if err != nil {
		t.Fatal(err)
	}
	got := fresh(want)
	got.State(s)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, want)
	}
	if again := save(got); !bytes.Equal(again, data) {
		t.Error("save(load(save)) differs from save")
	}
}

func TestSectionMismatchIsTyped(t *testing.T) {
	s := checkpoint.NewStream()
	s.Section("pkg/A", 1)
	data := s.Finish()

	for _, c := range []struct {
		name string
		ver  uint32
	}{{"pkg/B", 1}, {"pkg/A", 2}} {
		s, err := checkpoint.Open(data)
		if err != nil {
			t.Fatal(err)
		}
		if s.Section(c.name, c.ver); !errors.Is(s.Err(), simerr.ErrTraceCorrupt) {
			t.Errorf("Section(%q, %d): err = %v, want ErrTraceCorrupt class", c.name, c.ver, s.Err())
		}
	}
}

func TestErrorLatches(t *testing.T) {
	s := checkpoint.NewStream()
	v32 := uint32(7)
	s.Uint32(&v32)
	s, err := checkpoint.Open(s.Finish())
	if err != nil {
		t.Fatal(err)
	}
	// Loading a Uint64 from a 4-byte payload fails; every later load
	// must yield zero without advancing or re-reporting.
	v := uint64(99)
	if s.Uint64(&v); v != 0 {
		t.Errorf("short Uint64 = %d, want 0", v)
	}
	first := s.Err()
	if !errors.Is(first, simerr.ErrTraceCorrupt) {
		t.Fatalf("Err() = %v, want ErrTraceCorrupt class", first)
	}
	v = 99
	if s.Uint64(&v); v != 0 {
		t.Errorf("post-latch Uint64 = %d, want 0", v)
	}
	if n := s.Count(5, 1); n != 0 {
		t.Errorf("post-latch Count = %d, want 0", n)
	}
	if s.Err() != first {
		t.Error("latched error changed identity")
	}
}

func TestOpenRejectsDamage(t *testing.T) {
	data := save(&thing{Us: []uint64{1, 2, 3}})

	cases := map[string][]byte{
		"short":    data[:4],
		"magic":    append(append([]byte{}, "XPSNAP\x00\n"...), data[8:]...),
		"version":  flip(data, 8),
		"payload":  flip(data, len(data)/2),
		"checksum": flip(data, len(data)-1),
	}
	for name, bad := range cases {
		if _, err := checkpoint.Open(bad); !errors.Is(err, simerr.ErrTraceCorrupt) {
			t.Errorf("%s: err = %v, want ErrTraceCorrupt class", name, err)
		}
	}
}

func flip(data []byte, at int) []byte {
	out := append([]byte{}, data...)
	out[at] ^= 0x40
	return out
}

// TestConfigMismatchIsTyped: configuration-derived dimensions and
// presence flags load only into a receiver of the same shape, and a
// collection count beyond the payload left is rejected before any
// allocation.
func TestConfigMismatchIsTyped(t *testing.T) {
	base := &thing{Tab: []byte{1, 2}, Us: []uint64{4, 5}}
	data := save(base)
	for name, into := range map[string]*thing{
		"table": {Tab: make([]byte, 3), Us: make([]uint64, 2)},
		"slice": {Tab: make([]byte, 2), Us: make([]uint64, 1)},
	} {
		s, _ := checkpoint.Open(data)
		if into.State(s); !errors.Is(s.Err(), simerr.ErrTraceCorrupt) {
			t.Errorf("%s size mismatch: err = %v, want ErrTraceCorrupt class", name, s.Err())
		}
	}

	flag := checkpoint.NewStream()
	flag.Has(true)
	s, _ := checkpoint.Open(flag.Finish())
	if s.Has(false); !errors.Is(s.Err(), simerr.ErrTraceCorrupt) {
		t.Errorf("presence mismatch: err = %v, want ErrTraceCorrupt class", s.Err())
	}

	huge := checkpoint.NewStream()
	huge.Count(1<<40, 1)
	s, _ = checkpoint.Open(huge.Finish())
	if n := s.Count(0, 1); n != 0 || !errors.Is(s.Err(), simerr.ErrTraceCorrupt) {
		t.Errorf("oversized count: n = %d, err = %v, want 0 and ErrTraceCorrupt class", n, s.Err())
	}
}

func TestWriteFileAndLatest(t *testing.T) {
	dir := t.TempDir()

	// Empty and missing directories mean "nothing to resume", not an
	// error: the first run of a crash-safe loop starts from zero.
	for _, d := range []string{dir, filepath.Join(dir, "missing")} {
		if snap, err := checkpoint.Latest(d); err != nil || snap != "" {
			t.Fatalf("Latest(%q) = %q, %v", d, snap, err)
		}
	}

	s := checkpoint.NewStream()
	s.Section("pkg/A", 1)
	data := s.Finish()
	for _, insts := range []uint64{2_000_000, 10_000_000, 9_000_000} {
		if err := checkpoint.WriteFile(filepath.Join(dir, checkpoint.FileName(insts)), data); err != nil {
			t.Fatal(err)
		}
	}
	// Decoys Latest must skip: a torn temp file and a foreign name.
	for _, name := range []string{checkpoint.FileName(99_000_000) + ".tmp", "README"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := checkpoint.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, checkpoint.FileName(10_000_000)); snap != want {
		t.Errorf("Latest = %q, want %q", snap, want)
	}
	if _, err := checkpoint.ReadFile(snap); err != nil {
		t.Errorf("ReadFile(Latest): %v", err)
	}
}

// TestWriteFileConcurrentWriters: writers racing on one path each get
// their own temp file, so every write succeeds, the file ends holding
// exactly one writer's whole payload, and no temp file is left behind.
func TestWriteFileConcurrentWriters(t *testing.T) {
	const writers, writes = 8, 50
	dir := t.TempDir()
	path := filepath.Join(dir, checkpoint.FileName(1))
	payloads := make([][]byte, writers)
	for g := range payloads {
		payloads[g] = bytes.Repeat([]byte{byte('a' + g)}, 64<<10)
	}
	errs := make(chan error, writers*writes)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < writes; i++ {
				if err := checkpoint.WriteFile(path, payloads[g]); err != nil {
					errs <- fmt.Errorf("writer %d, write %d: %w", g, i, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed++; failed <= 3 {
			t.Error(err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d writes failed", failed, writers*writes)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for _, p := range payloads {
		whole = whole || bytes.Equal(got, p)
	}
	if !whole {
		t.Errorf("file holds %d bytes that match no single payload", len(got))
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Errorf("directory holds %d entries after the writes, want 1", len(ents))
	}
}

// walkValue walks one scripted value: a saving stream writes want, a
// loading stream must overwrite a scrambled value with exactly want.
func walkValue[T comparable](t *testing.T, s *checkpoint.Stream, want, scrambled T, walk func(*T)) {
	v := want
	if s.Loading() {
		v = scrambled
	}
	if walk(&v); s.Loading() && v != want {
		t.Fatalf("%T walked back as %v, want %v", v, v, want)
	}
}

// FuzzRoundTrip drives the stream with a fuzzer-chosen script of typed
// walks, saving once and then replaying the identical script through a
// loading stream opened on the framed bytes. The invariant is exact:
// every value loads back equal and Err() stays nil — the property the
// whole checkpoint/resume subsystem's bit-identity guarantee bottoms
// out on. The script bytes double as the value stream, so the fuzzer
// mutates both structure and content.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 0xFF, 0, 0, 6, 3, 'a', 'b', 'c'})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, script []byte) {
		walk := func(s *checkpoint.Stream) {
			in := script
			next := func() byte {
				if len(in) == 0 {
					return 0
				}
				b := in[0]
				in = in[1:]
				return b
			}
			for len(in) > 0 {
				switch next() % 8 {
				case 0:
					v := uint64(next()) | uint64(next())<<8 | uint64(next())<<56
					walkValue(t, s, v, ^v, s.Uint64)
				case 1:
					v := uint32(next()) | uint32(next())<<24
					walkValue(t, s, v, ^v, s.Uint32)
				case 2:
					v := int64(int8(next()))
					walkValue(t, s, v, ^v, s.Int64)
				case 3:
					v := next()
					walkValue(t, s, v, ^v, s.Byte)
				case 4:
					v := next()%2 == 1
					walkValue(t, s, v, !v, s.Bool)
				case 5:
					n := int(next()) % (len(in) + 1)
					v := string(in[:n])
					in = in[n:]
					walkValue(t, s, v, v+"?", s.String)
				case 6:
					n := int(next()) % (len(in) + 1)
					v := string(in[:n])
					in = in[n:]
					s.Section(v, uint32(n))
				case 7:
					n := int(next()) % 4
					want := make([]uint64, n)
					for i := range want {
						want[i] = uint64(next()) << 32
					}
					v := append([]uint64(nil), want...)
					if s.Loading() {
						clear(v)
					}
					if s.Uint64s(v); !slices.Equal(v, want) {
						t.Fatalf("Uint64s = %#x, want %#x", v, want)
					}
				}
			}
		}
		w := checkpoint.NewStream()
		walk(w)
		r, err := checkpoint.Open(w.Finish())
		if err != nil {
			t.Fatalf("Open after Finish: %v", err)
		}
		walk(r)
		if r.Err() != nil {
			t.Fatal(r.Err())
		}
	})
}

// FuzzOpen throws raw bytes at the container framing: Open must never
// panic and must reject everything non-conforming with the typed
// corruption class a resume path dispatches on.
func FuzzOpen(f *testing.F) {
	valid := save(&thing{Us: []uint64{1, 2, 3}})
	f.Add(valid)
	f.Add(flip(valid, len(valid)/2))
	f.Add([]byte("WPSNAP\x00\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := checkpoint.Open(data)
		if err != nil {
			if !errors.Is(err, simerr.ErrTraceCorrupt) {
				t.Fatalf("Open: untyped error %v", err)
			}
			return
		}
		// A structurally valid container: walking it must latch a typed
		// error or run clean, never panic.
		for s.Err() == nil {
			var b []byte
			if s.Bytes(&b); len(b) == 0 && s.Err() == nil {
				var v uint64
				s.Uint64(&v)
			}
		}
		if err := s.Err(); !errors.Is(err, simerr.ErrTraceCorrupt) {
			t.Fatalf("walk: untyped error %v", err)
		}
	})
}
