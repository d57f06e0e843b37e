package server

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/sim"
	"repro/internal/simerr"
)

// Config sizes the serving layer. The zero value of every field selects
// a sensible default; simulated results never depend on any of them.
type Config struct {
	// Workers is the worker-pool width (<= 0: one per host core).
	Workers int
	// QueueDepth bounds the admission queue; a submit beyond it is
	// rejected with ErrQueueFull (HTTP 429 + Retry-After). <= 0: 64.
	QueueDepth int
	// StateDir is the durable job store (specs, results, checkpoint
	// chains). "" runs the server ephemeral: no persistence, no
	// checkpoints, no resume.
	StateDir string
	// CheckpointEvery is the default snapshot interval in retired
	// instructions for jobs that do not set their own (0: 1M). Only
	// meaningful with a StateDir.
	CheckpointEvery uint64
	// Metrics receives both the server's own lifecycle metrics and the
	// sim-layer samples of every job (nil: a fresh registry).
	Metrics *obs.Registry
	// CacheMax bounds the result cache's in-memory tier (0: the
	// resultcache default, < 0 disables the cache entirely). With a
	// StateDir the cache also persists under StateDir/cache, surviving
	// daemon restarts; ephemeral servers cache in memory only. The
	// cache can only skip runs, never change bytes: entries are
	// content-addressed by the request fingerprint (see cacheKey) and
	// self-verifying on read.
	CacheMax int
}

// Typed admission refusals, for the HTTP layer to map onto status
// codes.
var (
	// ErrQueueFull reports a full admission queue (HTTP 429).
	ErrQueueFull = errors.New("admission queue full")
	// ErrDraining reports a server that has stopped admitting because a
	// drain is in progress (HTTP 503).
	ErrDraining = errors.New("server draining")
	// ErrUnknownJob reports a job id with no record (HTTP 404).
	ErrUnknownJob = errors.New("unknown job")
)

// Server runs simulation jobs on a bounded worker pool with durable,
// crash-safe state. See the package comment for the conformance
// invariant.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *resultcache.Cache // nil when Config.CacheMax < 0

	baseCtx   context.Context
	cancelAll context.CancelFunc

	admit chan *job
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool
	queuedN  int
	runningN int
	seq      int
	jobs     map[string]*job
	order    []*job // submission order (map ranges are banned from output paths)
	// inflight maps a cache key to the leader job currently
	// queued or running for it; identical submissions coalesce onto it
	// as followers instead of executing again.
	inflight map[string]*job

	mSubmitted, mRejected, mResumed        *obs.Counter
	mDone, mFailed, mCanceled              *obs.Counter
	mCacheHit, mCacheMiss, mCacheCoalesced *obs.Counter
	mCacheCorrupt, mCacheStore, mSimRuns   *obs.Counter
	mStateCorrupt                          *obs.Counter
	gQueued, gRunning                      *obs.Gauge
}

// New builds the server: it loads the state directory, restores
// terminal jobs read-only, re-admits every unfinished job (ahead of any
// new submission, in original order), and starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = batch.DefaultWorkers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 1_000_000
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		jobs:     make(map[string]*job),
		inflight: make(map[string]*job),

		mSubmitted:      reg.Counter("wpserved_jobs_submitted_total"),
		mRejected:       reg.Counter("wpserved_jobs_rejected_total"),
		mResumed:        reg.Counter("wpserved_jobs_resumed_total"),
		mDone:           reg.Counter("wpserved_jobs_done_total"),
		mFailed:         reg.Counter("wpserved_jobs_failed_total"),
		mCanceled:       reg.Counter("wpserved_jobs_canceled_total"),
		mCacheHit:       reg.Counter("wpserved_cache_hits_total"),
		mCacheMiss:      reg.Counter("wpserved_cache_misses_total"),
		mCacheCoalesced: reg.Counter("wpserved_cache_coalesced_total"),
		mCacheCorrupt:   reg.Counter("wpserved_cache_corrupt_total"),
		mCacheStore:     reg.Counter("wpserved_cache_stores_total"),
		mSimRuns:        reg.Counter("wpserved_sim_runs_total"),
		mStateCorrupt:   reg.Counter("wpserved_state_corrupt_total"),
		gQueued:         reg.Gauge("wpserved_jobs_queued"),
		gRunning:        reg.Gauge("wpserved_jobs_running"),
	}
	if cfg.CacheMax >= 0 {
		dir := ""
		if cfg.StateDir != "" {
			dir = filepath.Join(cfg.StateDir, "cache")
		}
		c, err := resultcache.New(dir, cfg.CacheMax)
		if err != nil {
			return nil, err
		}
		s.cache = c
	}
	s.baseCtx, s.cancelAll = context.WithCancel(context.Background())
	pending, maxSeq, err := s.loadState()
	if err != nil {
		s.cancelAll()
		return nil, err
	}
	s.seq = maxSeq
	// Recovered jobs get queue slack beyond QueueDepth so re-admission
	// can never be refused; they still occupy admission slots until a
	// worker picks them up.
	s.admit = make(chan *job, cfg.QueueDepth+len(pending))
	for _, j := range pending {
		s.queuedN++
		s.admit <- j
	}
	s.gQueued.Set(uint64(s.queuedN))
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics returns the registry the server publishes into.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Submit validates and admits a job. It returns ErrDraining once a
// drain has begun and ErrQueueFull when QueueDepth jobs are already
// waiting; any other error is a spec validation failure.
//
// Admission is cache-aware, in disposition order:
//
//   - hit: the spec's cache key resolves in the result cache; the job
//     is born terminal with the cached canonical bytes, never queued.
//   - coalesced: an identical submission is already queued or running;
//     the new job becomes its follower — own id, own status document,
//     but the leader's execution and its canonical bytes, verbatim.
//   - miss: the job runs. A clean result is stored under its cache
//     key for the next identical submission.
//
// Neither a hit nor a coalesced submission occupies an admission-queue
// slot, so they are served even at QueueDepth.
func (s *Server) Submit(spec JobSpec) (Status, error) {
	req, err := spec.request()
	if err != nil {
		s.mRejected.Inc()
		return Status{}, err
	}
	fp := cacheKey(req)
	// Probe outside the server lock: the persistent tier is a disk read
	// and must not stall unrelated submissions. The window this opens —
	// a leader completing between probe and registration — costs at
	// most one redundant run (the execute-time probe closes most of
	// it), never a wrong answer.
	cached, hit, corrupt := s.cache.Get(fp)
	if corrupt {
		s.mCacheCorrupt.Inc()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.mRejected.Inc()
		return Status{}, ErrDraining
	}
	if hit {
		s.seq++
		j := newJob(jobID(s.seq), s.seq, spec, fp)
		if err := s.persistSpec(j); err != nil {
			s.removeJobDir(j.id)
			s.mRejected.Inc()
			return Status{}, fmt.Errorf("persisting job spec: %w", err)
		}
		if j.serveFromCache(s.resultWriter(j.id), cached, cacheHit) {
			s.jobs[j.id] = j
			s.order = append(s.order, j)
			s.mSubmitted.Inc()
			s.mCacheHit.Inc()
			s.mDone.Inc()
			return j.status(), nil
		}
		// Cached bytes that do not parse as a result document (cannot
		// happen with self-verified entries): fall through to a real
		// run rather than serve them.
		s.removeJobDir(j.id)
		s.seq--
	}
	if leader := s.inflight[fp]; leader != nil {
		s.seq++
		f := newJob(jobID(s.seq), s.seq, spec, fp)
		f.st.DedupedOf = leader.id
		f.st.Cache = cacheCoalesced
		if err := s.persistSpec(f); err != nil {
			s.removeJobDir(f.id)
			s.mRejected.Inc()
			return Status{}, fmt.Errorf("persisting job spec: %w", err)
		}
		s.jobs[f.id] = f
		s.order = append(s.order, f)
		leader.followers = append(leader.followers, f)
		s.mSubmitted.Inc()
		s.mCacheCoalesced.Inc()
		return f.status(), nil
	}
	if s.queuedN >= s.cfg.QueueDepth {
		s.mRejected.Inc()
		return Status{}, ErrQueueFull
	}
	s.seq++
	j := newJob(jobID(s.seq), s.seq, spec, fp)
	if s.cache != nil {
		j.st.Cache = cacheMiss
		s.mCacheMiss.Inc()
	}
	if err := s.persistSpec(j); err != nil {
		s.removeJobDir(j.id)
		s.mRejected.Inc()
		return Status{}, fmt.Errorf("persisting job spec: %w", err)
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	if fp != "" {
		s.inflight[fp] = j
	}
	s.queuedN++
	s.gQueued.Set(uint64(s.queuedN))
	s.mSubmitted.Inc()
	s.admit <- j // buffered beyond QueueDepth; never blocks under mu
	return j.status(), nil
}

// Job returns the status document for id.
func (s *Server) Job(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownJob
	}
	return j.status(), nil
}

// Jobs returns every job's status in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	order := make([]*job, len(s.order))
	copy(order, s.order)
	s.mu.Unlock()
	out := make([]Status, len(order))
	for i, j := range order {
		out[i] = j.status()
	}
	return out
}

// Result returns the canonical result bytes and host wall time for id,
// or nil bytes when the job holds no result (still pending, failed,
// or canceled).
func (s *Server) Result(id string) ([]byte, int64, error) {
	canonical, wall, _, err := s.ResultStatus(id)
	return canonical, wall, err
}

// ResultStatus returns the canonical result bytes, host wall time, and
// status document for id from one locked read of the job. The result
// endpoint needs all three coherently: reading the bytes and then the
// status separately would let the job turn terminal in between and
// pair a no-result response with a stale state.
func (s *Server) ResultStatus(id string) ([]byte, int64, Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, 0, Status{}, ErrUnknownJob
	}
	canonical, wall, st := j.snapshot()
	return canonical, wall, st, nil
}

// Cancel requests cancellation of a queued or running job. A queued job
// becomes terminal immediately; a running one stops at its next lane
// boundary and the worker records the terminal state. The returned
// status reflects the job after the request.
func (s *Server) Cancel(id string) (Status, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Status{}, ErrUnknownJob
	}
	if j.requestCancel(s.resultWriter(j.id)) {
		st := j.status()
		if st.State == StateCanceled {
			// Canceled while queued: terminal (and persisted) right here,
			// so this is the singleflight settle point — a canceled leader
			// hands its coalesced followers to a promoted successor. (A
			// running job records its terminal state in complete.)
			s.mCanceled.Inc()
			s.settle(j)
		}
		return st, nil
	}
	return j.status(), nil
}

// Drain stops admission, cancels every running job at its next lane
// boundary (their checkpoint chains stay on disk), waits for the
// workers to park, and returns. Interrupted jobs remain queued-on-disk;
// the next daemon run over the same state directory re-admits and
// resumes them bit-identically. ctx bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	close(s.admit)
	s.mu.Unlock()
	s.cancelAll()
	parked := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(parked)
	}()
	select {
	case <-parked:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: %w", ctx.Err())
	}
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// addRunning tracks the running-job gauge under the server lock (the
// obs Gauge is last-value-wins, not a counter).
func (s *Server) addRunning(d int) {
	s.mu.Lock()
	s.runningN += d
	s.gRunning.Set(uint64(s.runningN))
	s.mu.Unlock()
}

// worker is the pool loop: it pulls admitted jobs until the admission
// channel closes. Jobs dequeued after a drain began are skipped — they
// stay queued on disk for the next daemon run.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.admit {
		s.mu.Lock()
		s.queuedN--
		s.gQueued.Set(uint64(s.queuedN))
		draining := s.draining
		s.mu.Unlock()
		if draining {
			continue
		}
		s.execute(j)
	}
}

// execute runs one job end to end: context setup, the sim run inside a
// panic-containing batch cell, and terminal-state recording.
func (s *Server) execute(j *job) {
	// Second cache probe, at dequeue time: it catches a job that waited
	// behind the identical run that populated the cache, and a
	// re-admitted duplicate from a previous daemon run.
	if data, hit, corrupt := s.cache.Get(j.fp); corrupt {
		s.mCacheCorrupt.Inc()
	} else if hit && j.serveFromCache(s.resultWriter(j.id), data, cacheHit) {
		s.mCacheHit.Inc()
		s.mDone.Inc()
		s.settle(j)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if j.spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(j.spec.TimeoutMS)*time.Millisecond)
	}
	defer cancel()
	if !j.start(cancel) {
		return // canceled while queued
	}
	s.addRunning(1)
	defer s.addRunning(-1)
	// One-cell batch: containment for a panic escaping the sim layer,
	// and a typed pre-start cancellation when the drain won the race.
	cell := batch.RunContext(ctx, []func() (*sim.Result, error){
		func() (*sim.Result, error) { return s.runJob(ctx, j) },
	}, 1)[0]
	s.complete(j, cell.Value, cell.Err)
}

// runJob layers the serving concerns onto the spec's request and runs
// it. None of them perturb simulated state: the context only decides
// where the run may stop early, the registry only observes, and the
// checkpoint chain is exactly the crash-safety mechanism the sim layer
// already guarantees bit-identical resumes for. The request is rebuilt
// here rather than kept on every job, most of which never run.
func (s *Server) runJob(ctx context.Context, j *job) (*sim.Result, error) {
	s.mSimRuns.Inc()
	req, err := j.spec.request()
	if err != nil {
		return nil, err
	}
	cfg := &req.Config
	cfg.Ctx = ctx
	cfg.Metrics = s.reg
	if dir := s.jobDir(j.id); dir != "" {
		// A re-admitted job continues from its newest snapshot.
		req.Resume = true
		cfg.CheckpointDir = filepath.Join(dir, "ckpt")
		cfg.CheckpointEvery = j.spec.CheckpointEvery
		if cfg.CheckpointEvery == 0 {
			cfg.CheckpointEvery = s.cfg.CheckpointEvery
		}
		cfg.OnCheckpoint = func(insts uint64, _ string) { j.ckptInsts.Store(insts) }
	}
	res, resumed, err := sim.Execute(req)
	if resumed {
		j.setResumed()
		s.mResumed.Inc()
	}
	return res, err
}

// complete records a job's terminal state, durably before visibly —
// or, when a drain interrupted it, re-queues it for the next daemon
// run. The state and exit code mirror the CLI convention; the canonical
// result bytes are recorded only for completed runs (clean or
// annotated), never for cancellations or hard failures.
func (s *Server) complete(j *job, res *sim.Result, err error) {
	write := s.resultWriter(j.id)
	switch {
	case errors.Is(err, simerr.ErrCanceled) || err == nil && errors.Is(res.Err, simerr.ErrCanceled):
		// Canceled before the run could start (batch pre-start check), or
		// stopped at a lane boundary. A partial result depends on where
		// the boundary fell, so it is never exposed as a result document.
		if s.Draining() && !j.isUserCanceled() {
			j.requeue()
			return
		}
		j.finish(write, StateCanceled, exitAnnotated, func(j *job) {
			j.st.Error = simerr.FirstLine(err)
			if err == nil {
				j.st.Error = simerr.FirstLine(res.Err)
				j.st.WallNS = int64(res.Wall)
			}
		})
		s.mCanceled.Inc()
	case err != nil:
		// Hard failure: the spec could not run at all (workload build
		// error, checkpoint I/O, an escaped panic). No result exists.
		j.finish(write, StateFailed, exitFailure, func(j *job) { j.st.Error = simerr.FirstLine(err) })
		s.mFailed.Inc()
	default:
		// A completed run: clean, or annotated by the fault in
		// Result.Err (a functional error, a failed snapshot write). The
		// result document exists in both.
		canonical, cerr := CanonicalResult(res)
		if cerr != nil {
			j.finish(write, StateFailed, exitFailure, func(j *job) { j.st.Error = cerr.Error() })
			s.mFailed.Inc()
			break
		}
		code := exitClean
		if res.Err != nil {
			code = exitAnnotated
		}
		// The one cacheability rule (shared with wpexp): only an
		// addressable request's clean result enters the cache. An
		// annotated document records an event outside the spec, so it is
		// not a pure function of the spec and a later identical
		// submission could legitimately complete clean. Coalesced
		// followers still share it — they joined this execution — but the
		// cache never replays it. The entry is stored before the job
		// reads done, so a client that sees done also finds the entry.
		if s.cache != nil && j.fp != "" && code == exitClean {
			if s.cache.Put(j.fp, canonical) == nil {
				s.mCacheStore.Inc()
			}
		}
		j.finish(write, StateDone, code, func(j *job) {
			j.canonical = canonical
			j.st.WallNS = int64(res.Wall)
			j.st.Error = simerr.FirstLine(res.Err)
		})
		s.mDone.Inc()
	}
	s.settle(j)
}

// settle resolves a job's singleflight entry once it is terminal. Its
// coalesced followers either share its canonical bytes verbatim or —
// when the leader ended with no result (canceled, hard-failed) — the
// first still-waiting follower is promoted to leader and enqueued, so
// coalescing can never starve a submission behind a canceled twin.
func (s *Server) settle(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[j.fp] == j {
		delete(s.inflight, j.fp)
	}
	followers := j.followers
	j.followers = nil
	if len(followers) == 0 {
		return
	}
	canonical, _, lead := j.snapshot()
	if canonical != nil {
		for _, f := range followers {
			if !f.serveShared(s.resultWriter(f.id), canonical, lead, "") {
				continue // canceled while waiting
			}
			s.mDone.Inc()
		}
		return
	}
	// The leader died without a result: promote the first follower that
	// is still waiting, re-link the rest to it.
	var next *job
	var rest []*job
	for _, f := range followers {
		if !f.stillQueued() {
			continue
		}
		if next == nil {
			next = f
		} else {
			rest = append(rest, f)
		}
	}
	if next == nil {
		return
	}
	next.promote()
	next.followers = rest
	s.inflight[next.fp] = next
	if s.draining {
		// Admission is closed; the promoted follower stays queued on
		// disk and the next daemon run re-admits it.
		return
	}
	// Run the promotion on its own pool-tracked goroutine rather than
	// re-entering the admission channel: settle can run on a worker
	// that is itself part of the pool, and a blocking channel send
	// under the server lock could wedge every worker behind it. The
	// wg.Add is safe here: draining is false under s.mu, so the
	// workers are still registered and Drain's Wait has not started.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.execute(next)
	}()
}
