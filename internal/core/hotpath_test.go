package core

import (
	"math/rand"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// newBareCore builds a core with no queue or policy: enough for driving
// the issue path and the state walk directly.
func newBareCore(t *testing.T) *Core {
	t.Helper()
	c, err := New(DefaultConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reload saves c and loads the snapshot into a fresh core, returning it
// and the load's error.
func reload(t *testing.T, c *Core) (*Core, error) {
	t.Helper()
	s := checkpoint.NewStream()
	c.State(s)
	ld, err := checkpoint.Open(s.Finish())
	if err != nil {
		t.Fatal(err)
	}
	fresh := newBareCore(t)
	fresh.State(ld)
	return fresh, ld.Err()
}

// firstMin is the reference scan: the index and value of v's first
// minimum.
func firstMin(v []uint64) (int, uint64) {
	mi := 0
	for i := range v {
		if v[i] < v[mi] {
			mi = i
		}
	}
	return mi, v[mi]
}

// minOf returns v's minimum.
func minOf(v []uint64) uint64 {
	_, lo := firstMin(v)
	return lo
}

// TestIssueFloorsAreLowerBounds drives random correct- and wrong-path
// issueAndExecute calls. After each, every floor must be at most the
// minimum it bounds (the floors short-circuit wrong-path squashes, which
// is exact only while free times never decrease), and each wrong-path
// call must do what the plain scans say: return resolve and change
// nothing when the first-minimum port and unit cannot start it before
// resolve, otherwise take exactly that port and unit.
func TestIssueFloorsAreLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := newBareCore(t)
	ops := []isa.Op{isa.OpAdd, isa.OpAddi, isa.OpMul, isa.OpDiv, isa.OpLd, isa.OpSd,
		isa.OpFadd, isa.OpFmul, isa.OpFdiv, isa.OpBeq, isa.OpJal, isa.OpJalr, isa.OpNop}
	reg := func() isa.Reg {
		if rng.Intn(4) == 0 {
			return isa.RegNone
		}
		return isa.Reg(rng.Intn(isa.NumRegs))
	}
	// The clock advances about as fast as the ports fill, and source
	// registers are reset near it, so that calls land on both sides of
	// every floor.
	var base uint64
	var squashed, floorExits, issued int
	for i := 0; i < 100_000; i++ {
		if rng.Intn(12) == 0 {
			base++
		}
		di := trace.DynInst{
			PC:      0x1000 + 4*uint64(rng.Intn(64)),
			In:      isa.Inst{Op: ops[rng.Intn(len(ops))], Rd: reg(), Rs1: reg(), Rs2: reg(), Rs3: isa.RegNone},
			MemAddr: uint64(rng.Intn(1 << 16)),
			HasAddr: rng.Intn(2) == 0,
		}
		m := codecache.MetaOf(&di.In)
		for s := uint8(0); s < m.NSrcs; s++ {
			c.regReady[m.Srcs[s]] = base + uint64(rng.Intn(20))
		}
		disp := base + uint64(rng.Intn(8))
		wrongPath := rng.Intn(2) == 0

		cl := fuClass(m.Class)
		pi, pfree := firstMin(c.issuePorts)
		ui, ufree := firstMin(c.fuFree[cl])
		ready := disp
		for s := uint8(0); s < m.NSrcs; s++ {
			ready = maxU(ready, c.regReady[m.Srcs[s]])
		}
		start := maxU(ready, maxU(pfree, ufree))
		var resolve uint64
		if wrongPath {
			resolve = disp + uint64(rng.Intn(30))
		}
		if wrongPath && !m.IsNop() && maxU(ready, maxU(c.portFloor, c.unitFloor[cl])) >= resolve {
			floorExits++ // a wrong-path call that the floors alone squash
		}

		got := c.issueAndExecute(&di, &m, disp, wrongPath, resolve)

		if c.portFloor > minOf(c.issuePorts) {
			t.Fatalf("call %d: portFloor %d above the port minimum %d", i, c.portFloor, minOf(c.issuePorts))
		}
		for cl := range c.fuFree {
			if len(c.fuFree[cl]) > 0 && c.unitFloor[cl] > minOf(c.fuFree[cl]) {
				t.Fatalf("call %d: unitFloor[%d] %d above the unit minimum %d", i, cl, c.unitFloor[cl], minOf(c.fuFree[cl]))
			}
		}
		if !wrongPath || m.IsNop() {
			continue
		}
		if start >= resolve {
			if got != resolve || c.issuePorts[pi] != pfree || c.fuFree[cl][ui] != ufree {
				t.Fatalf("call %d: squashed instruction returned %d (resolve %d) or took a port or unit", i, got, resolve)
			}
			squashed++
			continue
		}
		issued++
		if c.issuePorts[pi] != maxU(ready, pfree)+1 {
			t.Fatalf("call %d: port %d is %d, want %d (first minimum)", i, pi, c.issuePorts[pi], maxU(ready, pfree)+1)
		}
		if u := c.fuFree[cl][ui]; u != start+1 && u != start+c.fuLat[cl] {
			t.Fatalf("call %d: unit %d of class %d is %d after a start at %d", i, ui, cl, u, start)
		}
		if !m.IsLoad() && got != start+c.fuLat[cl] {
			t.Fatalf("call %d: returned %d, want start %d + latency %d", i, got, start, c.fuLat[cl])
		}
	}
	if squashed-floorExits < 100 || floorExits < 2_000 || issued < 2_000 {
		t.Fatalf("wrong-path calls: %d squashed (%d by the floors alone), %d issued: the mix no longer exercises each case",
			squashed, floorExits, issued)
	}
}

// TestStateRejectsCorruptCursors: a checksum-valid snapshot whose ring
// cursor lies outside its ring must fail to load, not restore into a
// core that panics at the next store.
func TestStateRejectsCorruptCursors(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(c *Core)
	}{
		{"dispIdx", func(c *Core) { c.dispIdx = len(c.dispRing) }},
		{"robIdx", func(c *Core) { c.robIdx = -1 }},
		{"commitIdx", func(c *Core) { c.commitIdx = len(c.commitRing) }},
		{"sqIdx", func(c *Core) { c.sqIdx = len(c.storeQ) }},
		{"sqLive", func(c *Core) { c.sqLive = len(c.storeQ) + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newBareCore(t)
			tc.set(c)
			if _, err := reload(t, c); err == nil {
				t.Fatalf("snapshot with an out-of-range %s loaded without error", tc.name)
			}
		})
	}
	if _, err := reload(t, newBareCore(t)); err != nil {
		t.Fatalf("in-range cursors: %v", err)
	}
}

// fullForward is the reference store-queue search: every live entry,
// newest first, with no filter.
func fullForward(c *Core, addr uint64, size int) (uint64, bool) {
	idx := c.sqIdx
	for i := 0; i < c.sqLive; i++ {
		if idx--; idx < 0 {
			idx = len(c.storeQ) - 1
		}
		e := &c.storeQ[idx]
		if addr >= e.addr && addr+uint64(size) <= e.addr+uint64(e.size) {
			return e.done, true
		}
	}
	return 0, false
}

// TestForwardFilterMatchesScan drives random stores and loads through
// the store queue — sizes 1 to 8, unaligned addresses packed into a few
// hundred bytes (so a covering store often starts in the granule below
// the load's), addresses 0 to 7, and far more stores than entries, so
// the ring wraps — and requires the filtered forward to agree with the
// full scan on every load, also after a snapshot reload rebuilds the
// filter's counts.
func TestForwardFilterMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := newBareCore(t)
	addr := func() uint64 {
		if rng.Intn(8) == 0 {
			return uint64(rng.Intn(8))
		}
		return 0x1000 + uint64(rng.Intn(300))
	}
	hits := 0
	for i := 0; i < 200_000; i++ {
		if i == 100_000 {
			fresh, err := reload(t, c)
			if err != nil {
				t.Fatal(err)
			}
			c = fresh
		}
		if rng.Intn(3) == 0 {
			c.pushStore(addr(), 1+rng.Intn(8), uint64(i))
			continue
		}
		a, size := addr(), 1+rng.Intn(8)
		gotDone, gotOK := c.forward(a, size)
		wantDone, wantOK := fullForward(c, a, size)
		if gotDone != wantDone || gotOK != wantOK {
			t.Fatalf("load %d: forward(%#x, %d) = %d, %v; the full scan finds %d, %v", i, a, size, gotDone, gotOK, wantDone, wantOK)
		}
		if gotOK {
			hits++
		}
	}
	if hits < 10_000 {
		t.Fatalf("only %d forwarding loads: the test no longer exercises the filter", hits)
	}
}
