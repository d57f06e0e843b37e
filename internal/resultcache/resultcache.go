// Package resultcache is a two-tier content-addressed cache for
// canonical result bytes: a bounded in-memory LRU in front of an
// optional persistent store. Keys are specfp fingerprints, each
// prefixed by its store's format domain; values are opaque byte
// documents (the serving layer stores canonical result JSON under
// "wpserved.canonical.v2-", the experiment runner full sim.Result JSON
// under "wpexp.result.v2-"), so stores sharing a directory never
// decode each other's entries.
//
// The cache's correctness contract is asymmetric: it may always miss,
// it must never return wrong bytes. Three mechanisms enforce that:
//
//   - entries are content-addressed — the fingerprint covers every spec
//     field that can influence the canonical bytes, so a key can only
//     ever map to one value;
//   - disk writes are atomic and durable (checkpoint.WriteFile: a synced
//     temp file renamed into place, then a directory sync), so a crash
//     mid-write never leaves a torn entry under a readable name, and an
//     entry Put has returned survives a crash;
//   - disk reads are self-verifying — every entry embeds the SHA-256 of
//     its body, and a mismatch (bit rot, manual truncation, a torn
//     rename on a non-atomic filesystem) discards the entry and reports
//     a miss, falling through to a real run.
//
// The in-memory tier is bounded (LRU eviction); the persistent tier
// under dir/ grows with distinct specs and survives process restarts.
// All methods are safe for concurrent use.
package resultcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/specfp"
)

// DefaultMaxEntries bounds the in-memory tier when the caller passes
// max <= 0.
const DefaultMaxEntries = 256

// header opens every persistent entry; the version is part of the
// magic so a format change invalidates old files instead of
// misreading them.
const header = "wpcache/v1 "

// Cache is the two-tier store. The zero value is not usable; call New.
type Cache struct {
	dir string // "" = memory-only
	max int

	mu      sync.Mutex
	entries map[string]*list.Element // fingerprint → LRU node
	lru     *list.List               // front = most recently used

	hits, misses, corrupt, evictions uint64
}

// entry is one LRU node payload.
type entry struct {
	fp   string
	data []byte
}

// New opens a cache. dir is the persistent tier's directory (created
// if missing); "" keeps the cache memory-only. max bounds the
// in-memory entries (<= 0 selects DefaultMaxEntries).
func New(dir string, max int) (*Cache, error) {
	if max <= 0 {
		max = DefaultMaxEntries
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
	}
	return &Cache{
		dir:     dir,
		max:     max,
		entries: make(map[string]*list.Element),
		lru:     list.New(),
	}, nil
}

// validKey accepts a specfp fingerprint behind an optional domain of
// [a-z0-9.-], so an entry name can never traverse out of dir.
func validKey(key string) bool {
	n := len(key) - 64
	return n >= 0 && specfp.Valid(key[n:]) &&
		strings.Trim(key[:n], "abcdefghijklmnopqrstuvwxyz0123456789.-") == ""
}

// path maps a validated key to its entry file.
func (c *Cache) path(fp string) string {
	return filepath.Join(c.dir, fp+".wpres")
}

// Get returns the bytes stored under fp. hit reports whether an entry
// was found (memory first, then disk — a disk hit is promoted into the
// memory tier). corrupt reports that a disk entry existed but failed
// self-verification and was discarded; the caller sees a miss and must
// fall through to a real run. Callers must not mutate the returned
// slice.
func (c *Cache) Get(fp string) (data []byte, hit, corrupt bool) {
	if c == nil || !validKey(fp) {
		return nil, false, false
	}
	c.mu.Lock()
	if el, ok := c.entries[fp]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		data := el.Value.(*entry).data
		c.mu.Unlock()
		return data, true, false
	}
	c.mu.Unlock()

	if c.dir == "" {
		c.note(&c.misses)
		return nil, false, false
	}
	data, err := c.readEntry(fp)
	if err != nil {
		if os.IsNotExist(err) {
			c.note(&c.misses)
			return nil, false, false
		}
		// A readable file that fails verification is evidence of
		// corruption; remove it so it cannot fail again, and miss.
		_ = os.Remove(c.path(fp))
		c.note(&c.corrupt)
		return nil, false, true
	}
	c.mu.Lock()
	c.insertLocked(fp, data)
	c.hits++
	c.mu.Unlock()
	return data, true, false
}

// Put stores data under fp in both tiers. The persistent write is
// atomic and durable before Put returns: a crash during Put can lose
// the entry but never tear it. The caller must not mutate data
// afterwards.
func (c *Cache) Put(fp string, data []byte) error {
	if c == nil {
		return nil
	}
	if !validKey(fp) {
		return fmt.Errorf("resultcache: invalid key %q", fp)
	}
	c.mu.Lock()
	c.insertLocked(fp, data)
	c.mu.Unlock()
	if c.dir == "" {
		return nil
	}
	return c.writeEntry(fp, data)
}

// insertLocked installs (or refreshes) the memory-tier entry and
// evicts past the bound. Caller holds c.mu.
func (c *Cache) insertLocked(fp string, data []byte) {
	if el, ok := c.entries[fp]; ok {
		el.Value.(*entry).data = data
		c.lru.MoveToFront(el)
		return
	}
	c.entries[fp] = c.lru.PushFront(&entry{fp: fp, data: data})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*entry).fp)
		c.evictions++
	}
}

// note bumps one statistics counter under the lock.
func (c *Cache) note(field *uint64) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// writeEntry persists one entry — header + body checksum + body —
// atomically and durably.
func (c *Cache) writeEntry(fp string, data []byte) error {
	sum := sha256.Sum256(data)
	var buf bytes.Buffer
	buf.Grow(len(header) + 65 + len(data))
	buf.WriteString(header)
	buf.WriteString(hex.EncodeToString(sum[:]))
	buf.WriteByte('\n')
	buf.Write(data)
	if err := checkpoint.WriteFile(c.path(fp), buf.Bytes()); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// readEntry loads and verifies one persistent entry. Any structural or
// checksum failure returns a non-IsNotExist error (the caller treats it
// as corruption).
func (c *Cache) readEntry(fp string) ([]byte, error) {
	raw, err := os.ReadFile(c.path(fp))
	if err != nil {
		return nil, err
	}
	if len(raw) < len(header)+65 || string(raw[:len(header)]) != header {
		return nil, fmt.Errorf("resultcache: %s: bad header", fp)
	}
	rest := raw[len(header):]
	nl := bytes.IndexByte(rest, '\n')
	if nl != 64 {
		return nil, fmt.Errorf("resultcache: %s: bad checksum line", fp)
	}
	want := string(rest[:64])
	body := rest[nl+1:]
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != want {
		return nil, fmt.Errorf("resultcache: %s: checksum mismatch", fp)
	}
	return body, nil
}

// Len returns the in-memory entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats is a point-in-time snapshot of the cache's own counters. The
// serving layer mirrors dispositions into its obs registry; these
// counters exist for tests and debugging.
type Stats struct {
	Hits, Misses, Corrupt, Evictions uint64
}

// Stats returns the counter snapshot.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Corrupt: c.corrupt, Evictions: c.evictions}
}
