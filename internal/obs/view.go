package obs

// View bundles one run's live instrumentation: the registry series the
// run publishes into (pre-resolved so the hot path never takes the
// registry lock) and the run's trace track. A nil *View disables every
// hook at the cost of one nil check — the wiring contract that keeps a
// disabled run bit-identical to an uninstrumented build.
//
// Views carry *sampling* instrumentation only (distributions, spans,
// instants). Run-level aggregate counters — wrong-path generation
// counts, instructions, cycles — are published by the sim layer once
// per result a caller receives, so a sweep's totals count every cell
// exactly once and a run that fails without a result counts nothing.
type View struct {
	Workload  string
	Technique string

	// Queue is the decoupling-queue hook bundle (handles may be nil
	// when only tracing is enabled).
	Queue QueueObs

	track        *Track
	ckptWrites   *Counter
	ckptRestores *Counter
}

// QueueObs is the decoupling queue's hook bundle; internal/queue holds
// a pointer to one (nil when uninstrumented).
type QueueObs struct {
	// Occupancy samples the buffered-entry count on every PopBatch.
	Occupancy *Histogram
	// PeekDepth samples the requested lookahead index of every
	// PeekWindow.
	PeekDepth *Histogram
	// PeekMiss counts peeks answered empty (program end or clip).
	PeekMiss *Counter
	// PeekClipped counts peeks refused at the capacity ceiling while
	// the producer still had instructions — the silent-truncation case
	// the queue otherwise grows past.
	PeekClipped *Counter
	// Grows counts ring-buffer growths triggered by deep peeks.
	Grows *Counter
}

// Enabled reports whether any hook in the bundle is live. Trace-only
// runs resolve their View against a nil registry, which leaves every
// queue handle nil — attaching such a bundle would cost a nil-receiver
// dispatch per queue operation for no data, so the core checks Enabled
// before wiring the bundle and passes nil through otherwise.
func (o *QueueObs) Enabled() bool {
	return o != nil && (o.Occupancy != nil || o.PeekDepth != nil ||
		o.PeekMiss != nil || o.PeekClipped != nil || o.Grows != nil)
}

// NewView resolves one run's handles. reg and sink may each be nil
// independently; if both are nil the caller should keep a nil *View
// instead so hot-path hooks reduce to one nil check.
func NewView(reg *Registry, sink *TraceSink, workload, technique string) *View {
	v := &View{
		Workload:     workload,
		Technique:    technique,
		track:        sink.Track(Key("run", workload, technique)),
		ckptWrites:   reg.Counter(Key("checkpoint_writes_total", workload, technique)),
		ckptRestores: reg.Counter(Key("checkpoint_restores_total", workload, technique)),
	}
	v.Queue = QueueObs{
		Occupancy:   reg.Histogram(Key("queue_occupancy", workload, technique)),
		PeekDepth:   reg.Histogram(Key("queue_peek_depth", workload, technique)),
		PeekMiss:    reg.Counter(Key("queue_peek_miss_total", workload, technique)),
		PeekClipped: reg.Counter(Key("queue_peek_clipped_total", workload, technique)),
		Grows:       reg.Counter(Key("queue_grow_total", workload, technique)),
	}
	return v
}

// --- core-side hooks (cycle timestamps) ---

// FetchStall records a front-end stall on an instruction-cache miss:
// dur cycles beyond the hidden hit latency, starting at cycle ts.
// wrongPath tags stalls charged while fetching down a wrong path, so
// speculative fetch activity never masquerades as correct-path timing
// in the trace (the wpflow analyzer counts this tagged publish among
// the approved wrong-path crossing points).
func (v *View) FetchStall(pc, ts, dur uint64, wrongPath bool) {
	if v == nil {
		return
	}
	wp := uint64(0)
	if wrongPath {
		wp = 1
	}
	v.track.Span("fetch-stall", ts, dur, Arg{"pc", pc}, Arg{"wrong_path", wp})
}

// Mispredict records one misprediction's speculation window: the span
// from wrong-path fetch start to branch resolution, with the length of
// the generated wrong path and how much of it was fetched.
func (v *View) Mispredict(pc, ts, dur uint64, wpLen, wpFetched int) {
	if v == nil {
		return
	}
	v.track.Span("mispredict", ts, dur,
		Arg{"pc", pc}, Arg{"wp_len", uint64(wpLen)}, Arg{"wp_fetched", uint64(wpFetched)})
}

// Convergence records a detected wrong-path/correct-path convergence at
// cycle ts, dist instructions down the wrong path.
func (v *View) Convergence(pc, ts, dist uint64) {
	if v == nil {
		return
	}
	v.track.Instant("convergence", ts, Arg{"pc", pc}, Arg{"dist", dist})
}

// Serialize records a pipeline drain for an environment call.
func (v *View) Serialize(pc, ts uint64) {
	if v == nil {
		return
	}
	v.track.Instant("serialize", ts, Arg{"pc", pc})
}

// QueueDepth samples the decoupling queue's occupancy counter series at
// cycle ts.
func (v *View) QueueDepth(ts uint64, occupancy int) {
	if v == nil {
		return
	}
	v.track.Counter("queue occupancy", ts, uint64(occupancy))
}

// --- checkpoint hooks (called from the simulation goroutine at lane
// boundaries) ---

// CheckpointWrite records one snapshot written at the given retired
// instruction count, with its serialized size. The trace timestamp is
// the instruction count: snapshots sit on a fixed instruction grid, so
// instants line up across techniques and across kill/resume chains.
func (v *View) CheckpointWrite(insts, bytes uint64) {
	if v == nil {
		return
	}
	v.ckptWrites.Inc()
	v.track.Instant("checkpoint-write", insts, Arg{"insts", insts}, Arg{"bytes", bytes})
}

// CheckpointRestore records a session state overwrite from a snapshot
// taken at the given retired instruction count.
func (v *View) CheckpointRestore(insts uint64) {
	if v == nil {
		return
	}
	v.ckptRestores.Inc()
	v.track.Instant("checkpoint-restore", insts, Arg{"insts", insts})
}
