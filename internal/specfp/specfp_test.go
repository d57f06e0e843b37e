package specfp

import (
	"strings"
	"testing"
)

func TestDeterministicAndDistinct(t *testing.T) {
	build := func() *Builder {
		b := New("test/v1")
		b.String("suite", "gap")
		b.String("bench", "bfs")
		b.Uint64("seed", 42)
		b.Int64("n", 1024)
		b.Bool("kron", false)
		b.Float("scale", 0.5)
		b.Int64("watchdog_ms", 250)
		return b
	}
	a, b := build().Sum(), build().Sum()
	if a != b {
		t.Fatalf("identical builders disagree: %s vs %s", a, b)
	}
	if !Valid(a) {
		t.Fatalf("Sum %q is not a valid fingerprint", a)
	}

	// Flipping any single field must change the sum.
	variants := []func(*Builder){
		func(b *Builder) { b.String("suite", "specint") },
		func(b *Builder) { b.Uint64("seed", 43) },
		func(b *Builder) { b.Bool("kron", true) },
		func(b *Builder) { b.Float("scale", 0.25) },
	}
	for i, mut := range variants {
		v := build()
		mut(v)
		if v.Sum() == a {
			t.Errorf("variant %d collided with the base fingerprint", i)
		}
	}
}

func TestDomainSeparation(t *testing.T) {
	mk := func(domain string) string {
		b := New(domain)
		b.String("k", "v")
		return b.Sum()
	}
	if mk("a/v1") == mk("b/v1") {
		t.Error("distinct domains produced the same fingerprint")
	}
}

// TestInjectiveEncoding: shifting bytes between a field name and its
// value (or between adjacent fields) must never alias, or two distinct
// specs could share a content address.
func TestInjectiveEncoding(t *testing.T) {
	one := New("t")
	one.String("ab", "c")
	two := New("t")
	two.String("a", "bc")
	if one.Sum() == two.Sum() {
		t.Error("name/value boundary is not part of the identity")
	}
	three := New("t")
	three.String("a", "b")
	three.String("c", "d")
	four := New("t")
	four.String("a", "bc")
	four.String("", "d")
	if three.Sum() == four.Sum() {
		t.Error("field boundary is not part of the identity")
	}
}

func TestDocumentRendersLengthPrefixed(t *testing.T) {
	b := New("dom")
	b.String("name", "value")
	doc := string(b.buf)
	for _, want := range []string{"3:dom\n", "4:name\n", "5:value\n"} {
		if !strings.Contains(doc, want) {
			t.Errorf("document %q missing record %q", doc, want)
		}
	}
}

func TestValid(t *testing.T) {
	good := New("x").Sum()
	for s, want := range map[string]bool{
		good:                          true,
		strings.ToUpper(good):         false,
		"":                            false,
		"../../etc/passwd":            false,
		strings.Repeat("0", 63):       false,
		strings.Repeat("0", 64):       true,
		strings.Repeat("0", 63) + "g": false,
		good[:32] + "/" + good[33:]:   false,
	} {
		if Valid(s) != want {
			t.Errorf("Valid(%q) = %v, want %v", s, !want, want)
		}
	}
}
