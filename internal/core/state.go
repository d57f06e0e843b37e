package core

import (
	"fmt"

	"repro/internal/checkpoint"
)

// snapshotVersion stamps this package's snapshot sections; bump it when
// the walked field set changes.
const snapshotVersion = 1

// State walks the core's persistent timing state at a lane boundary:
// fetch/dispatch/commit clocks and rings, issue-port and functional-unit
// availability, register-ready times, the store queue, the statistics,
// and the delegated predictor, hierarchy and code-cache state. The lane
// buffer, the wrong-path scratch (wpRing/dispSnapshot) and the
// observability view are deliberately absent — at a lane boundary the
// lane is empty, and the wrong-path scratch is written before it is
// read within every single simulateWrongPath call. Nor are the
// issue-port and functional-unit floors, which are derived: a load
// rejects any ring cursor out of range, then restarts the floors at
// zero (still lower bounds), and recounts the store-queue filter from
// the live entries. Nor is the timing stage's decode-only code cache,
// nor the lane ring between the stages, which is empty between runs. A
// load needs a core built (New) under the
// same configuration: every configuration-sized structure is a
// dimension of the walk.
func (c *Core) State(s *checkpoint.Stream) {
	s.Section("core/Core", snapshotVersion)
	s.Uint64(&c.fetchCycle)
	s.Int(&c.fetchedInCycle)
	s.Uint64(&c.curFetchLine)
	s.Uint64(&c.lastDispatch)
	s.Uint64s(c.dispRing)
	s.Int(&c.dispIdx)
	s.Uint64s(c.robRing)
	s.Int(&c.robIdx)
	s.Uint64(&c.lastCommit)
	s.Uint64s(c.commitRing)
	s.Int(&c.commitIdx)
	s.Uint64s(c.issuePorts)
	for cl := range c.fuFree {
		s.Uint64s(c.fuFree[cl])
	}
	for i := range c.regReady {
		s.Uint64(&c.regReady[i])
	}
	s.Dim(len(c.storeQ))
	for i := range c.storeQ {
		e := &c.storeQ[i]
		s.Uint64(&e.addr)
		s.Int(&e.size)
		s.Uint64(&e.done)
	}
	s.Int(&c.sqIdx)
	s.Int(&c.sqLive)
	if s.Loading() {
		c.restoreDerived(s)
	}
	c.stats.State(s)
	c.bp.State(s)
	c.hier.State(s)
	c.code.State(s)
}

// restoreDerived checks the loaded ring cursors, then resets the floors
// and rebuilds the store-queue filter's counts.
func (c *Core) restoreDerived(s *checkpoint.Stream) {
	for _, r := range []struct {
		name string
		v, n int // v must lie in [0, n)
	}{{"dispIdx", c.dispIdx, len(c.dispRing)}, {"robIdx", c.robIdx, len(c.robRing)},
		{"commitIdx", c.commitIdx, len(c.commitRing)}, {"sqIdx", c.sqIdx, len(c.storeQ)},
		{"sqLive", c.sqLive, len(c.storeQ) + 1}} {
		if r.v < 0 || r.v >= r.n {
			s.Fail(fmt.Errorf("core: snapshot %s %d outside [0, %d)", r.name, r.v, r.n))
			return
		}
	}
	c.portFloor, c.unitFloor = 0, [16]uint64{}
	c.sqCount = [sqGrains]uint32{}
	for i, idx := 0, c.sqIdx; i < c.sqLive; i++ {
		if idx--; idx < 0 {
			idx = len(c.storeQ) - 1
		}
		c.sqCount[grain(c.storeQ[idx].addr)]++
	}
}

// State walks the core counters.
func (s *Stats) State(st *checkpoint.Stream) {
	st.Section("core/Stats", snapshotVersion)
	st.Uint64(&s.Instructions)
	st.Uint64(&s.Cycles)
	st.Uint64(&s.CondBranches)
	st.Uint64(&s.CondMispredicted)
	st.Uint64(&s.IndirectJumps)
	st.Uint64(&s.IndirectMispredicted)
	st.Uint64(&s.Returns)
	st.Uint64(&s.ReturnMispredicted)
	st.Uint64(&s.Mispredicts)
	st.Uint64(&s.WPFetched)
	st.Uint64(&s.WPExecuted)
	st.Uint64(&s.WPLoads)
	st.Uint64(&s.WPLoadsWithAddr)
	st.Uint64(&s.LoadForwards)
	st.Uint64(&s.Serializations)
}
