package core

import (
	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/codecache"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/wrongpath"
)

const invalidLine = ^uint64(0)

// Stats holds the core-level counters of one simulation.
type Stats struct {
	// Instructions is the number of retired correct-path instructions.
	Instructions uint64
	// Cycles is the cycle of the last commit.
	Cycles uint64

	// Branch statistics (correct path).
	CondBranches         uint64
	CondMispredicted     uint64
	IndirectJumps        uint64
	IndirectMispredicted uint64
	Returns              uint64
	ReturnMispredicted   uint64
	// Mispredicts is the total of all control mispredictions.
	Mispredicts uint64

	// Wrong-path statistics. WPFetched counts wrong-path instructions
	// fetched before the triggering branch resolved; WPExecuted counts
	// those that also began execution before resolution (the paper's
	// Table II metric).
	WPFetched  uint64
	WPExecuted uint64
	// WPLoads counts wrong-path loads executed; WPLoadsWithAddr those
	// that carried a data address (and therefore accessed the cache).
	WPLoads         uint64
	WPLoadsWithAddr uint64

	// LoadForwards counts loads satisfied by store-to-load forwarding.
	LoadForwards uint64
	// Serializations counts pipeline drains for environment calls.
	Serializations uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MPKI returns control mispredictions per kilo-instruction.
func (s Stats) MPKI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return 1000 * float64(s.Mispredicts) / float64(s.Instructions)
}

// WPFraction returns wrong-path instructions executed relative to the
// correct-path instruction count (Table II).
func (s Stats) WPFraction() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.WPExecuted) / float64(s.Instructions)
}

// noteWPFetched and noteWPExecuted are the approved accessors for the
// wrong-path-split counters (enforced by cmd/wplint's statpath
// analyzer): every increment goes through here so the correct/wrong
// attribution stays audited in one place.

func (s *Stats) noteWPFetched() { s.WPFetched++ }

func (s *Stats) noteWPExecuted(op isa.Op, hasAddr bool) {
	s.WPExecuted++
	if op.IsLoad() {
		s.WPLoads++
		if hasAddr {
			s.WPLoadsWithAddr++
		}
	}
}

type sqEntry struct {
	addr uint64
	size int
	done uint64
}

// sqGrains is the number of store-queue filter counters; a store counts
// in the counter of the 8-byte granule its first byte lies in, folded
// modulo sqGrains.
const sqGrains = 1024

// grain returns the filter counter of the 8-byte granule holding addr.
func grain(addr uint64) uint64 { return (addr >> 3) & (sqGrains - 1) }

// Core is the out-of-order core timing model. Its measured loop runs in
// two stages on two goroutines (see stream.go), so its fields fall in
// three groups: set before a run and read by both stages; owned by the
// stream stage; owned by the timing stage. Padding keeps the two
// stages' groups off each other's cache lines.
type Core struct {
	cfg Config

	// obs is the run's instrumentation view (nil when disabled; every
	// hook below it is a no-op behind one nil check).
	obs *obs.View

	// laneHook, when non-nil, runs on the timing stage at every lane
	// boundary, warmup's included — the only instant at which the core's
	// transient state (lane buffer, wrong-path scratch) is provably
	// empty, and therefore the only instant a checkpoint may be taken.
	// Returning false stops the run (cancellation); the loop exits as if
	// the stream had ended. holdAt reports, on the stream stage, whether
	// laneHook will write a snapshot at the measured lane boundary after
	// insts retired instructions.
	laneHook func() bool
	holdAt   func(insts uint64) bool

	// pipe is the lane ring between the stages; streamFn is the stream
	// method value, built once so that starting a run allocates nothing.
	pipe     pipe
	streamFn func()
	_        [64]byte

	// The stream stage's state. streamWarm is the length of the warmup
	// it runs; streamInsts and streamMax bound the measured phase.
	bp          *branch.Unit
	code        *codecache.Cache
	q           *queue.Queue
	policy      wrongpath.Policy
	ctx         wrongpath.Context
	streamWarm  uint64
	streamInsts uint64
	streamMax   uint64

	// lane is the stream stage's current lane: PopBatch fills it, the
	// stream stage walks it record by record. lane[lanePos] is the record
	// being processed; lane[lanePos+1:laneN] are already-popped future
	// records that windowFuture serves before falling through to the
	// queue — which keeps the future every policy sees identical to
	// per-instruction consumption.
	lane    []trace.DynInst
	laneN   int
	lanePos int

	// wrongPaths takes the frontend's emulated wrong path for a
	// mispredicted branch by Seq, in exchange for a spare path buffer
	// (wpemul; nil otherwise). A path is taken at every mispredict the
	// core detects, warmup included, so the frontend's path FIFO drains
	// in step with consumption.
	wrongPaths func(seq uint64, spare []trace.DynInst) trace.Path
	_          [64]byte

	// The timing stage's state from here on. dec is its decode-only
	// code cache: it classifies the records the timing stage pushes
	// through the pipeline and is never looked up for reconstruction nor
	// walked into a snapshot.
	hier *cache.Hierarchy
	dec  *codecache.Cache

	// Fetch state.
	fetchCycle     uint64
	fetchedInCycle int
	curFetchLine   uint64
	lineMask       uint64
	l1iHitLat      uint64

	// Dispatch state (in-order, width-limited, ROB-occupancy-limited).
	lastDispatch uint64
	dispRing     []uint64
	dispIdx      int
	robRing      []uint64
	robIdx       int

	// Commit state (in-order, width-limited).
	lastCommit uint64
	commitRing []uint64
	commitIdx  int

	// Issue ports and functional units. portFloor and unitFloor[cl] are
	// the minima the last scan of issuePorts and fuFree[cl] found. Free
	// times never decrease, so each floor stays a lower bound on its
	// current minimum (derived state: zero after a restore).
	issuePorts []uint64
	fuFree     [16][]uint64
	fuLat      [16]uint64
	fuPipe     [16]bool
	portFloor  uint64
	unitFloor  [16]uint64

	// Register availability (by unified architectural register; the
	// model dispenses with explicit renaming — the ROB ring provides the
	// occupancy limit and write-after-write stalls do not exist because
	// every writer simply advances the availability time).
	regReady [isa.NumRegs]uint64

	// Store queue for store-to-load forwarding. sqCount counts the live
	// entries per granule (derived state: rebuilt after a restore), so a
	// load whose two candidate granules hold no store skips the scan.
	storeQ  []sqEntry
	sqIdx   int
	sqLive  int
	sqCount [sqGrains]uint32

	// Wrong-path speculative-window pseudo-commit ring and the dispatch
	// snapshot buffer reused across mispredictions.
	wpRing       []uint64
	dispSnapshot []uint64

	stats Stats
}

// New builds a core. q supplies the correct-path instruction stream;
// policy supplies wrong-path streams on mispredictions.
func New(cfg Config, q *queue.Queue, policy wrongpath.Policy) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Core{
		cfg:          cfg,
		hier:         cache.NewHierarchy(cfg.Hierarchy),
		bp:           branch.New(cfg.BranchPred),
		code:         codecache.New(),
		dec:          codecache.New(),
		q:            q,
		policy:       policy,
		curFetchLine: invalidLine,
		lineMask:     uint64(cfg.Hierarchy.L1I.LineBytes - 1),
		l1iHitLat:    uint64(cfg.Hierarchy.L1I.HitLatency),
		dispRing:     make([]uint64, cfg.DispatchWidth),
		robRing:      make([]uint64, cfg.ROBSize),
		commitRing:   make([]uint64, cfg.CommitWidth),
		issuePorts:   make([]uint64, cfg.IssueWidth),
		storeQ:       make([]sqEntry, cfg.StoreQueueSize),
		wpRing:       make([]uint64, cfg.ROBSize),
	}
	lookahead := cfg.batch()
	if q != nil {
		lookahead = q.Lookahead()
	}
	c.pipe.init(lookahead, cfg.batch())
	c.streamFn = c.stream
	for cl, fu := range cfg.FUs {
		c.fuFree[cl] = make([]uint64, fu.Count)
		c.fuLat[cl] = uint64(fu.Latency)
		c.fuPipe[cl] = fu.Pipelined
	}
	c.ctx = wrongpath.Context{
		Code:    c.code,
		Pred:    c.bp,
		Window:  c.windowFuture,
		ROBSize: cfg.ROBSize,
		MaxLen:  cfg.WPMaxLen(),
	}
	return c, nil
}

// windowFuture returns a contiguous read-only view of the future
// correct path starting at i, at most max records, possibly shorter
// (callers re-request at i+len): the lane remainder first, then the
// queue. Because PopBatch's refill keeps the queue in the
// per-instruction steady state, the combined view — both the records
// and the hit/miss boundary — is exactly what a per-instruction
// consumer's peek would see.
func (c *Core) windowFuture(i, max int) []trace.DynInst {
	r := c.laneN - c.lanePos - 1
	if i < r {
		w := c.lane[c.lanePos+1+i : c.laneN]
		if len(w) > max {
			w = w[:max]
		}
		return w
	}
	return c.q.PeekWindow(i-r, max)
}

// SetObs attaches a run's instrumentation view; nil detaches it.
func (c *Core) SetObs(v *obs.View) { c.obs = v }

// SetWrongPaths wires the source of emulated wrong paths (the
// frontend's WrongPaths take function; nil for none). In the measured
// phase each taken path reaches the policy as Context.Emulated, and its
// buffer goes back to the core's pool once the timing stage has
// simulated it.
func (c *Core) SetWrongPaths(take func(seq uint64, spare []trace.DynInst) trace.Path) {
	c.wrongPaths = take
}

// SetLaneHook installs f to run at every lane boundary, warmup's
// included (nil uninstalls it). The sim layer uses it for checkpoint
// writes and cancellation polls; a false return stops the run. Disabled
// runs pay one nil check per lane. holdAt, which may be nil, reports
// whether f will write a snapshot at the boundary after insts retired
// instructions; the stream stage calls it after each measured lane and
// starts no lane past such a boundary until f has run there, so f sees
// the stream stage's state exactly as a one-goroutine run would have
// left it. holdAt may read state that f writes only at such a boundary.
func (c *Core) SetLaneHook(f func() bool, holdAt func(insts uint64) bool) {
	c.laneHook, c.holdAt = f, holdAt
}

// Stats returns the accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// Hierarchy returns the memory hierarchy (for cache statistics).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Predecode classifies the static program into both code caches (see
// codecache.Cache.Predecode); lookups, and so results, are unchanged.
func (c *Core) Predecode(prog *isa.Program) {
	c.code.Predecode(prog)
	c.dec.Predecode(prog)
}

// RunWarmup first functionally warms caches, TLBs, branch predictor and
// code cache with warmup instructions (no timing, no statistics — the
// standard warming phase of sampled simulation, as used around the
// paper's SimPoint samples), then runs the detailed simulation until the
// program exits or maxInsts correct-path instructions have retired (0 =
// no cap). It returns the statistics.
func (c *Core) RunWarmup(warmup, maxInsts uint64) Stats {
	c.runStages(warmup, maxInsts)
	c.stats.Cycles = c.lastCommit
	return c.stats
}

// runStages runs both phases in two stages: the stream stage on a
// goroutine of its own, the timing stage here. Each lane's hook runs
// before the lane is handed back, so a stream stage held at a snapshot
// boundary resumes only after the snapshot is written. The cache
// statistics are reset before the first measured lane, or at the end
// when none comes, but not when the hook stops the run in warmup.
func (c *Core) runStages(warmup, maxInsts uint64) {
	c.streamWarm, c.streamInsts, c.streamMax = warmup, c.stats.Instructions, maxInsts
	go c.streamFn()
	defer c.joinStream()
	p := &c.pipe
	reset := warmup > 0
	for d := uint64(0); ; d++ {
		ln := p.next(d)
		if ln == nil {
			break
		}
		if reset && !ln.warm {
			c.hier.ResetStats()
			reset = false
		}
		if c.timeLane(ln) {
			break
		}
		ok := c.laneHook == nil || c.laneHook()
		p.done.advance(d+1, false)
		if !ok {
			return
		}
	}
	if reset {
		c.hier.ResetStats()
	}
}

// timeLane pushes a lane's records through the pipeline, each
// mispredicted one with the wrong path the stream stage attached, and
// reports whether the lane ended the program (an Exit record). A warm
// lane only makes its cache and TLB accesses, untimed: the instruction
// fetch at each new line and the data accesses. The obs enablement
// check is hoisted to the lane; disabled runs pay no per-instruction
// observability dispatch.
func (c *Core) timeLane(ln *lane) (exit bool) {
	if ln.warm {
		for j := range ln.recs[:ln.n] {
			di := &ln.recs[j]
			if line := di.PC &^ c.lineMask; line != c.curFetchLine {
				c.hier.AccessI(di.PC, 0, false)
				c.curFetchLine = line
			}
			switch {
			case !di.HasAddr:
			case di.In.Op.IsLoad():
				c.hier.Load(di.MemAddr, 0, false)
			case di.In.Op.IsStore():
				c.hier.Store(di.MemAddr, 0, false)
			}
		}
		return ln.recs[ln.n-1].Exit
	}
	obsOn := c.obs != nil
	wps := ln.wps
	for j := 0; j < ln.n; j++ {
		di := &ln.recs[j]
		m := c.dec.MetaFor(di.PC, &di.In)
		done, commit := c.stepCorrect(di, m)
		c.stats.Instructions++

		isControl := m.IsControl()
		mispredicted := isControl && len(wps) > 0 && wps[0].j == j
		if isControl {
			c.recordBranch(di, mispredicted)
		}
		switch {
		case mispredicted:
			wp := &wps[0]
			wps = wps[1:]
			c.stats.Mispredicts++
			resolve := done
			wpStart := c.fetchCycle
			if obsOn && wp.converged {
				c.obs.Convergence(di.PC, c.fetchCycle, wp.convDist)
			}
			wpFetched := c.simulateWrongPath(wp.recs, resolve)
			if obsOn {
				var dur uint64
				if resolve > wpStart {
					dur = resolve - wpStart
				}
				c.obs.Mispredict(di.PC, wpStart, dur, len(wp.recs), wpFetched)
			}
			c.redirectFetch(resolve + uint64(c.cfg.RedirectPenalty))
		case isControl && di.Taken:
			// Correctly predicted taken: the fetch group ends; the next
			// group starts at the target one cycle later.
			c.breakFetchGroup()
		case m.IsEcall():
			c.stats.Serializations++
			if obsOn {
				c.obs.Serialize(di.PC, commit)
			}
			c.redirectFetch(commit + uint64(c.cfg.RedirectPenalty))
		}
		if di.Exit {
			return true
		}
	}
	return false
}

func (c *Core) recordBranch(di *trace.DynInst, mispredicted bool) {
	switch {
	case di.In.Op.IsCondBranch():
		c.stats.CondBranches++
		if mispredicted {
			c.stats.CondMispredicted++
		}
	case branch.IsReturn(di.In):
		c.stats.Returns++
		if mispredicted {
			c.stats.ReturnMispredicted++
		}
	case di.In.Op == isa.OpJalr:
		c.stats.IndirectJumps++
		if mispredicted {
			c.stats.IndirectMispredicted++
		}
	}
}

// fetch charges one instruction's fetch and returns its fetch cycle.
func (c *Core) fetch(pc uint64, wrongPath bool) uint64 {
	if c.fetchedInCycle >= c.cfg.FetchWidth {
		c.fetchCycle++
		c.fetchedInCycle = 0
		c.curFetchLine = invalidLine
	}
	line := pc &^ c.lineMask
	if line != c.curFetchLine {
		lat := uint64(c.hier.AccessI(pc, c.fetchCycle, wrongPath))
		if lat > c.l1iHitLat {
			// The front end stalls for the miss; the hit pipeline is
			// otherwise hidden.
			if c.obs != nil {
				c.obs.FetchStall(pc, c.fetchCycle, lat-c.l1iHitLat, wrongPath)
			}
			c.fetchCycle += lat - c.l1iHitLat
			c.fetchedInCycle = 0
		}
		c.curFetchLine = line
	}
	c.fetchedInCycle++
	return c.fetchCycle
}

func (c *Core) breakFetchGroup() {
	c.fetchCycle++
	c.fetchedInCycle = 0
	c.curFetchLine = invalidLine
}

func (c *Core) redirectFetch(cycle uint64) {
	if cycle > c.fetchCycle {
		c.fetchCycle = cycle
	}
	c.fetchedInCycle = 0
	c.curFetchLine = invalidLine
}

// stepCorrect pushes one correct-path instruction through the pipeline
// and returns its execution-complete and commit cycles. m is the
// instruction's precomputed decode record.
func (c *Core) stepCorrect(di *trace.DynInst, m *codecache.Meta) (done, commit uint64) {
	fetchAt := c.fetch(di.PC, false)

	// Dispatch: in order, width-limited, ROB-occupancy-limited.
	disp := fetchAt + uint64(c.cfg.FetchToDispatch)
	disp = maxU(disp, c.lastDispatch)
	disp = maxU(disp, c.dispRing[c.dispIdx]+1)
	disp = maxU(disp, c.robRing[c.robIdx]+1)
	if m.IsEcall() {
		// Serializing: wait for every older instruction to commit.
		disp = maxU(disp, c.lastCommit+1)
	}
	c.lastDispatch = disp
	c.dispRing[c.dispIdx] = disp
	c.dispIdx = next(c.dispIdx, len(c.dispRing))

	done = c.issueAndExecute(di, m, disp, false, 0)

	// Commit: in order, width-limited, one cycle after completion.
	commit = maxU(done+1, c.lastCommit)
	commit = maxU(commit, c.commitRing[c.commitIdx]+1)
	c.lastCommit = commit
	c.commitRing[c.commitIdx] = commit
	c.commitIdx = next(c.commitIdx, len(c.commitRing))
	c.robRing[c.robIdx] = commit
	c.robIdx = next(c.robIdx, len(c.robRing))

	if m.IsStore() && di.HasAddr {
		// Committed stores drain to the cache off the critical path.
		c.hier.Store(di.MemAddr, commit, false)
		c.pushStore(di.MemAddr, int(m.MemBytes), done)
	}
	return done, commit
}

// issueAndExecute models dependence wakeup, issue-width and FU
// contention, and execution latency (loads through the hierarchy).
// When resolve is non-zero (wrong-path mode) and the instruction cannot
// start executing before resolve, it is squashed instead: no resources
// are consumed and the returned cycle is resolve itself.
func (c *Core) issueAndExecute(di *trace.DynInst, m *codecache.Meta, disp uint64, wrongPath bool, resolve uint64) uint64 {
	// Nops consume front-end and ROB slots only.
	if m.IsNop() {
		return disp
	}

	ready := disp
	for s := uint8(0); s < m.NSrcs; s++ {
		ready = maxU(ready, c.regReady[m.Srcs[s]])
	}
	cl := fuClass(m.Class)
	if wrongPath && maxU(ready, maxU(c.portFloor, c.unitFloor[cl])) >= resolve {
		// Squashed before either scan: the start time the scans would
		// find is at least ready and each floor.
		return resolve
	}

	// Issue port.
	pi, free := minIndex(c.issuePorts)
	c.portFloor = free
	issue := maxU(ready, free)

	// Functional unit.
	units := c.fuFree[cl]
	ui, free := minIndex(units)
	c.unitFloor[cl] = free
	start := maxU(issue, free)

	if wrongPath && start >= resolve {
		// Squashed before issuing: consumes no execution resources and
		// makes no cache access.
		return resolve
	}

	c.issuePorts[pi] = issue + 1
	var lat uint64
	switch {
	case m.IsLoad():
		lat = c.loadLatency(di, m, start, wrongPath)
	case m.IsEcall():
		lat = 5
	default:
		lat = c.fuLat[cl]
	}
	if c.fuPipe[cl] {
		units[ui] = start + 1
	} else {
		units[ui] = start + lat
	}

	done := start + lat
	if m.HasDst {
		c.regReady[m.Dst] = done
	}
	if wrongPath {
		c.stats.noteWPExecuted(di.In.Op, di.HasAddr)
	}
	return done
}

// loadLatency returns a load's latency: forwarded from the store queue,
// an assumed L1 hit when the address is unknown (instruction
// reconstruction), or a real hierarchy access.
func (c *Core) loadLatency(di *trace.DynInst, m *codecache.Meta, start uint64, wrongPath bool) uint64 {
	if !di.HasAddr {
		// §III-A: without addresses, "each memory operation is modeled
		// as a cache hit".
		return uint64(c.hier.L1DHitLatency())
	}
	if fwdDone, ok := c.forward(di.MemAddr, int(m.MemBytes)); ok {
		c.stats.LoadForwards++
		lat := uint64(c.hier.L1DHitLatency())
		if fwdDone+1 > start+lat {
			lat = fwdDone + 1 - start
		}
		return lat
	}
	return uint64(c.hier.Load(di.MemAddr, start, wrongPath))
}

func (c *Core) pushStore(addr uint64, size int, done uint64) {
	e := &c.storeQ[c.sqIdx]
	if c.sqLive == len(c.storeQ) {
		c.sqCount[grain(e.addr)]--
	} else {
		c.sqLive++
	}
	*e = sqEntry{addr: addr, size: size, done: done}
	c.sqCount[grain(addr)]++
	c.sqIdx = next(c.sqIdx, len(c.storeQ))
}

// forward searches the store queue, newest first, for a store fully
// covering the load [addr, addr+size), 1 ≤ size ≤ 8. A store is at most
// 8 bytes, so one that covers the load starts in addr's granule or in
// addr−7's; when neither holds a store, and the load does not wrap past
// the top of the address space, the scan would find nothing.
func (c *Core) forward(addr uint64, size int) (done uint64, ok bool) {
	if c.sqCount[grain(addr)] == 0 && c.sqCount[grain(addr-7)] == 0 && addr+uint64(size) > addr {
		return 0, false
	}
	idx := c.sqIdx
	for i := 0; i < c.sqLive; i++ {
		idx--
		if idx < 0 {
			idx = len(c.storeQ) - 1
		}
		e := &c.storeQ[idx]
		if addr >= e.addr && addr+uint64(size) <= e.addr+uint64(e.size) {
			return e.done, true
		}
	}
	return 0, false
}

// simulateWrongPath pushes a mispredicted branch's wrong path (the
// stream stage generated it) through the pipeline until the branch
// resolves. Wrong-path instructions access the I-cache, occupy a
// speculative window of ROB size (stalling wrong-path fetch when it
// fills — this is what makes accurately-modeled wrong-path cache misses
// reduce the number of wrong-path instructions executed, the paper's
// Table II observation), and access the data hierarchy when their
// address is known. All register and dispatch bookkeeping is rolled
// back at the squash; cache and predictor-free structures keep the
// perturbation. It returns how many of the path's instructions were
// fetched before resolution (observability only; disabled runs discard
// it).
func (c *Core) simulateWrongPath(wp []trace.DynInst, resolve uint64) (wpFetched int) {
	if len(wp) == 0 {
		return 0
	}

	// Snapshot state that the squash logically restores.
	savedRegs := c.regReady
	savedLastDispatch := c.lastDispatch
	if c.dispSnapshot == nil {
		c.dispSnapshot = make([]uint64, len(c.dispRing))
	}
	copy(c.dispSnapshot, c.dispRing)
	savedDispIdx := c.dispIdx

	// The front end redirects to the predicted target one cycle after
	// the mispredicted branch's fetch group.
	c.breakFetchGroup()

	var lastPseudo uint64
	w := 0 // i mod ROBSize
	for i := range wp {
		// Speculative-window occupancy: entry i must wait for entry
		// i-ROBSize to pseudo-retire.
		if i >= len(c.wpRing) {
			free := c.wpRing[w] + 1
			if free > c.fetchCycle {
				c.redirectFetch(free)
			}
		}
		if c.fetchCycle >= resolve {
			break
		}
		fetchAt := c.fetch(wp[i].PC, true)
		c.stats.noteWPFetched()
		wpFetched++

		disp := fetchAt + uint64(c.cfg.FetchToDispatch)
		disp = maxU(disp, c.lastDispatch)
		disp = maxU(disp, c.dispRing[c.dispIdx]+1)
		c.lastDispatch = disp
		c.dispRing[c.dispIdx] = disp
		c.dispIdx = next(c.dispIdx, len(c.dispRing))

		// A non-nop dispatched at or after resolve, or fetched once every
		// issue port is busy until resolve, is squashed: issueAndExecute
		// would return resolve and change nothing. It then needs no
		// decode record. A nop still completes at disp.
		done := resolve
		if maxU(disp, c.portFloor) < resolve || wp[i].In.Op == isa.OpNop {
			m := c.dec.MetaFor(wp[i].PC, &wp[i].In)
			done = c.issueAndExecute(&wp[i], m, disp, true, resolve)
		}

		pseudo := maxU(lastPseudo, done+1)
		c.wpRing[w] = pseudo
		lastPseudo = pseudo
		w = next(w, len(c.wpRing))

		if wp[i].Taken && wp[i].In.Op.IsControl() && c.fetchCycle < resolve {
			c.breakFetchGroup()
		}
	}

	c.regReady = savedRegs
	c.lastDispatch = savedLastDispatch
	copy(c.dispRing, c.dispSnapshot)
	c.dispIdx = savedDispIdx
	return wpFetched
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// next advances a ring cursor: i+1, wrapping to 0 at n.
func next(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// minIndex returns the index and value of v's first minimum.
func minIndex(v []uint64) (int, uint64) {
	mi, lo := 0, v[0]
	for i := 1; i < len(v); i++ {
		if x := v[i]; x < lo {
			mi, lo = i, x
		}
	}
	return mi, lo
}
