package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/specfp"
)

func fp(n int) string {
	b := specfp.New("resultcache-test")
	b.Int64("n", int64(n))
	return b.Sum()
}

func TestMemoryTier(t *testing.T) {
	c, err := New("", 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	key := fp(1)
	if _, hit, corrupt := c.Get(key); hit || corrupt {
		t.Fatalf("empty cache: hit=%v corrupt=%v", hit, corrupt)
	}
	if err := c.Put(key, []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	data, hit, _ := c.Get(key)
	if !hit || string(data) != "payload" {
		t.Fatalf("Get after Put: hit=%v data=%q", hit, data)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", st)
	}
}

func TestRejectsInvalidFingerprints(t *testing.T) {
	c, err := New(t.TempDir(), 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, bad := range []string{"", "short", "../escape", strings.Repeat("Z", 64)} {
		if err := c.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid fingerprint", bad)
		}
		if _, hit, _ := c.Get(bad); hit {
			t.Errorf("Get(%q) hit on an invalid fingerprint", bad)
		}
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(dir, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	key := fp(2)
	want := []byte(`{"canonical":true}`)
	if err := c1.Put(key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// A completed Put leaves exactly the entry file: no temp file.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(ents) != 1 || ents[0].Name() != key+".wpres" {
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Errorf("directory after Put holds %v, want only %s.wpres", names, key)
	}

	c2, err := New(dir, 4)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	data, hit, corrupt := c2.Get(key)
	if !hit || corrupt || !bytes.Equal(data, want) {
		t.Fatalf("reopened Get: hit=%v corrupt=%v data=%q", hit, corrupt, data)
	}
}

func TestCorruptEntryDiscardedAndMisses(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	key := fp(3)
	if err := c.Put(key, []byte("the canonical bytes")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(dir, key+".wpres")

	corruptions := map[string]func([]byte) []byte{
		"bit-flip in body":   func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"truncated":          func(b []byte) []byte { return b[:len(b)-3] },
		"header clobbered":   func(b []byte) []byte { b[0] = 'X'; return b },
		"checksum clobbered": func(b []byte) []byte { b[len(header)] ^= 0x01; return b },
	}
	// Deterministic order for the sub-runs.
	for _, name := range []string{"bit-flip in body", "truncated", "header clobbered", "checksum clobbered"} {
		mut := corruptions[name]
		t.Run(name, func(t *testing.T) {
			// Fresh cache each time so the memory tier cannot mask the
			// disk read; re-Put the entry the previous sub-test removed.
			if err := c.Put(key, []byte("the canonical bytes")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("ReadFile: %v", err)
			}
			if err := os.WriteFile(path, mut(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatalf("WriteFile: %v", err)
			}
			fresh, err := New(dir, 4)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			data, hit, corrupt := fresh.Get(key)
			if hit || !corrupt || data != nil {
				t.Fatalf("corrupt entry: hit=%v corrupt=%v data=%q", hit, corrupt, data)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry was not removed from disk")
			}
			// The next lookup is a clean miss, not corruption again.
			if _, hit, corrupt := fresh.Get(key); hit || corrupt {
				t.Errorf("after discard: hit=%v corrupt=%v, want clean miss", hit, corrupt)
			}
		})
	}
}

func TestLRUEvictionKeepsDiskTier(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(fp(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("memory tier holds %d entries, want 2", c.Len())
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	// The evicted entry is gone from memory but reloads from disk.
	data, hit, corrupt := c.Get(fp(0))
	if !hit || corrupt || string(data) != "v0" {
		t.Fatalf("evicted entry not served from disk: hit=%v corrupt=%v data=%q", hit, corrupt, data)
	}
}

func TestMemoryOnlyEviction(t *testing.T) {
	c, err := New("", 2)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(fp(i), []byte{byte(i)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if _, hit, _ := c.Get(fp(0)); hit {
		t.Error("memory-only cache served an evicted entry")
	}
	if _, hit, _ := c.Get(fp(2)); !hit {
		t.Error("memory-only cache lost a live entry")
	}
}

// TestConcurrentAccess exercises the lock discipline under -race.
func TestConcurrentAccess(t *testing.T) {
	c, err := New(t.TempDir(), 8)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fp(i % 16)
				if err := c.Put(key, []byte(fmt.Sprintf("v%d", i%16))); err != nil {
					t.Errorf("Put: %v", err)
				}
				if data, hit, _ := c.Get(key); hit {
					if want := fmt.Sprintf("v%d", i%16); string(data) != want {
						t.Errorf("Get(%s) = %q, want %q", key, data, want)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache
	if _, hit, corrupt := c.Get(fp(0)); hit || corrupt {
		t.Error("nil cache hit")
	}
	if err := c.Put(fp(0), []byte("x")); err != nil {
		t.Errorf("nil Put: %v", err)
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Error("nil cache reports non-zero state")
	}
}

// TestDomainPrefixedKeys: a store's format domain is part of the key,
// so two stores sharing a directory never read each other's entries,
// and a domain can never smuggle a path component.
func TestDomainPrefixedKeys(t *testing.T) {
	dir := t.TempDir()
	c, err := New(dir, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := c.Put("a.v2-"+fp(1), []byte("a")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	fresh, err := New(dir, 4)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, hit, _ := fresh.Get("b.v2-" + fp(1)); hit {
		t.Error("another domain's entry hit")
	}
	if data, hit, _ := fresh.Get("a.v2-" + fp(1)); !hit || string(data) != "a" {
		t.Errorf("own domain: hit=%v data=%q", hit, data)
	}
	for _, bad := range []string{"A-" + fp(1), "../" + fp(1), "a/" + fp(1)} {
		if err := c.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", bad)
		}
	}
}
