package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/simerr"
	"repro/internal/wrongpath"
)

// Session is one wired-up simulation: a Source feeding the decoupling
// queue, a wrong-path policy, and the out-of-order core, constructed
// from a Config in exactly one place. Run and Execute are built on it;
// construct a Session directly to supply a custom Source.
type Session struct {
	cfg    Config
	src    Source
	queue  *queue.Queue
	policy wrongpath.Policy
	core   *core.Core
	view   *obs.View // nil when observability is disabled
	// ident is the snapshot identity Execute stamps and requires on
	// restore; "" (Run, NewSession) never restores.
	ident string

	// restored marks a session whose state was overwritten by a snapshot
	// (Restore); Run then skips the warmup phase, which the snapshot has
	// already passed through. restoredInsts is the snapshot's retired
	// instruction count — the checkpoint grid resumes from there.
	restored      bool
	restoredInsts uint64
}

// NewSession validates the configuration against the source's
// capabilities and builds queue → policy → core. On error nothing is
// retained; the caller still owns (and must Close) the source. A
// capability the source lacks is a typed simerr.ErrConfig fault: it is
// a fixed property of the request, so no rerun can succeed.
func NewSession(cfg Config, src Source) (*Session, error) {
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	take := src.WrongPaths()
	if cfg.WP == wrongpath.WPEmul && take == nil {
		return nil, simerr.Config("configuring session",
			fmt.Errorf("sim: wrong-path emulation requires a live functional frontend, not a trace (paper §III-B)"))
	}
	if cfg.checkpointEnabled() {
		if _, err := checkpointState(src); err != nil {
			return nil, err
		}
	}
	s := &Session{cfg: cfg, src: src}
	q, err := queue.New(src, cfg.lookahead())
	if err != nil {
		return nil, err
	}
	s.queue = q
	if cfg.PolicyFactory != nil {
		s.policy = cfg.PolicyFactory()
	} else {
		s.policy = wrongpath.New(cfg.WP)
	}
	c, err := core.New(cfg.Core, s.queue, s.policy)
	if err != nil {
		return nil, err
	}
	s.core = c
	c.SetWrongPaths(take)
	if p, ok := src.(interface{ Program() *isa.Program }); ok {
		// Predecode the static program into the code caches so first
		// deliveries and wrong-path walks find their decode records
		// already classified. Lookup semantics — and therefore results —
		// are unchanged: predecoded entries still miss until delivered.
		c.Predecode(p.Program())
	}
	if s.view = cfg.view(); s.view != nil {
		s.core.SetObs(s.view)
	}
	return s, nil
}

// Run executes the warmup and measured simulation, closes the source,
// and collects the Result. Both phases run in the core's two stages:
// the timing stage on the caller's goroutine, and the stream stage —
// the source, the predictor and the policy — on a second one, which
// returns before Run does and whose panic is re-raised on the caller's. It is single-shot: the session's pipeline state is consumed
// by the run.
func (s *Session) Run() *Result {
	ctx := s.cfg.Ctx
	var ck *checkpointer
	var ckErr error
	if s.cfg.checkpointEnabled() {
		ck, ckErr = newCheckpointer(s, s.src)
	}
	if ck != nil || ctx != nil {
		// The lane hook is the deterministic supervision point: snapshots
		// are written exactly at lane boundaries (the only instant the
		// core's transient state is empty), and cancellation is honored
		// there. It is the one cancellation mechanism. The stream stage
		// holds at every boundary the checkpointer will write at.
		var holdAt func(uint64) bool
		if ck != nil {
			holdAt = ck.due
		}
		s.core.SetLaneHook(func() bool {
			if ck != nil {
				ck.onLane()
			}
			return ctx == nil || ctx.Err() == nil
		}, holdAt)
	}
	warmup := s.cfg.WarmupInsts
	if s.restored {
		// The snapshot was taken inside the measured phase: warmup (and
		// its statistics reset) already happened before it was written.
		warmup = 0
	}
	start := wallClock{}.Now()
	stats := s.core.RunWarmup(warmup, s.cfg.MaxInsts)
	wall := wallClock{}.Now().Sub(start)
	s.src.Close()

	h := s.core.Hierarchy()
	res := &Result{
		WP:               s.cfg.WP,
		Core:             stats,
		Policy:           *s.policy.Stats(),
		L1I:              h.L1I().Stats,
		L1D:              h.L1D().Stats,
		L2:               h.L2().Stats,
		LLC:              h.LLC().Stats,
		MemAccesses:      h.MemAccesses,
		WrongMemAccesses: h.WrongMemAccesses,
		Wall:             wall,
	}
	if h.ITLB() != nil {
		res.ITLB = h.ITLB().Stats
	}
	if h.DTLB() != nil {
		res.DTLB = h.DTLB().Stats
	}
	s.src.Collect(res)
	if res.Err == nil {
		if ckErr != nil {
			// Checkpointing could not even start; the run itself is
			// complete, but the cell's crash-safety promise was broken.
			res.Err = ckErr
		} else if ck != nil && ck.err != nil {
			res.Err = ck.err
		}
	}
	if ctx != nil && ctx.Err() != nil {
		// Cancellation outranks everything: whatever else broke, the
		// operator asked the run to stop.
		res.Err = &simerr.Fault{
			Kind:      simerr.ErrCanceled,
			Op:        "simulation run",
			Technique: s.cfg.WP.String(),
			Consumed:  stats.Instructions,
			Err:       ctx.Err(),
		}
	}
	return res
}
