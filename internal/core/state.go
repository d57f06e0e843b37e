package core

import "repro/internal/checkpoint"

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
// read within every single simulateWrongPath call. A load needs a core
// built (New) under the same configuration: every configuration-sized
// structure is a dimension of the walk.
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
	c.stats.State(s)
	c.bp.State(s)
	c.hier.State(s)
	c.code.State(s)
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
