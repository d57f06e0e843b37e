package server

import (
	"context"
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Job states. A job moves queued → running → one of the terminal
// states; a daemon drain moves a running job back to queued (with
// Interrupted set) so the next daemon run resumes it from its
// checkpoint chain.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"     // result available; ExitCode 0 (clean) or 3 (annotated)
	StateFailed   = "failed"   // hard failure, no result; ExitCode 1
	StateCanceled = "canceled" // operator cancel or timeout; ExitCode 3
)

// Exit codes mirror the CLI convention (README "Exit codes"): 0 clean,
// 1 hard failure, 3 completed-but-annotated (faulted or canceled). exitPending marks a job that has not reached a terminal
// state.
const (
	exitClean     = 0
	exitFailure   = 1
	exitAnnotated = 3
	exitPending   = -1
)

// Cache dispositions (Status.Cache, the X-Wpserved-Cache header).
const (
	cacheHit       = "hit"
	cacheMiss      = "miss"
	cacheCoalesced = "coalesced"
)

// Status is the GET /jobs/{id} document.
type Status struct {
	ID    string  `json:"id"`
	State string  `json:"state"`
	Spec  JobSpec `json:"spec"`
	// ExitCode mirrors the CLI exit-code convention once the job is
	// terminal (0 clean, 1 hard failure, 3 annotated); -1 before that.
	ExitCode int `json:"exit_code"`
	// Error is the hard-failure or cancellation reason, or the one-line
	// fault that ended an annotated run early.
	Error string `json:"error,omitempty"`
	// Resumed marks a job this daemon run restored from a snapshot.
	Resumed bool `json:"resumed,omitempty"`
	// Interrupted marks a job a drain stopped mid-run; it is queued for
	// resume on the next daemon run.
	Interrupted bool `json:"interrupted,omitempty"`
	// CheckpointInsts is the retired-instruction count of the newest
	// snapshot — the job's crash-safe progress watermark.
	CheckpointInsts uint64 `json:"checkpoint_insts,omitempty"`
	// WallNS is the host wall-clock of the run, for capacity planning;
	// it is never part of the canonical result bytes. Cache-served and
	// coalesced jobs report 0: they did not run.
	WallNS int64 `json:"wall_ns,omitempty"`
	// Cache is the job's cache disposition: "hit" (served from the
	// result cache without running), "coalesced" (deduplicated onto an
	// identical in-flight submission), or "miss" (ran the simulation).
	// Empty when the cache is disabled.
	Cache string `json:"cache,omitempty"`
	// DedupedOf names the leader job a coalesced submission shares its
	// execution — and its canonical bytes, verbatim — with.
	DedupedOf string `json:"deduped_of,omitempty"`
}

// job is the in-memory lifecycle record of one submission.
type job struct {
	id   string
	seq  int
	spec JobSpec
	fp   string // cacheKey of the spec's request, immutable

	ckptInsts atomic.Uint64 // updated from sim.Config.OnCheckpoint

	// followers are the coalesced submissions waiting on this job's
	// execution. Guarded by Server.mu (not j.mu): the list is only
	// touched at submit and settle time, both under the server lock.
	followers []*job

	mu         sync.Mutex
	st         Status             // the status document; CheckpointInsts lives in ckptInsts
	cancel     context.CancelFunc // non-nil while running
	userCancel bool
	canonical  json.RawMessage // CanonicalResult bytes once a result exists
}

func newJob(id string, seq int, spec JobSpec, fp string) *job {
	return &job{id: id, seq: seq, spec: spec, fp: fp,
		st: Status{ID: id, State: StateQueued, Spec: spec, ExitCode: exitPending}}
}

// start transitions queued → running and installs the cancel hook; it
// reports false (and leaves the job alone) when the job was canceled
// while still queued.
func (j *job) start(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.State != StateQueued {
		return false
	}
	j.st.State = StateRunning
	j.st.Interrupted = false
	j.cancel = cancel
	return true
}

// requeue moves a drain-interrupted running job back to queued: its
// spec and checkpoint chain are on disk, so the next daemon run
// resumes it.
func (j *job) requeue() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st.State = StateQueued
	j.st.Interrupted = true
	j.cancel = nil
	j.st.ExitCode = exitPending
}

// resultWriter persists a job's terminal documents (see
// Server.resultWriter); nil for an ephemeral server.
type resultWriter func(st Status, canonical json.RawMessage) error

// commit applies a terminal transition under j.mu and writes the
// resulting documents before releasing the lock, so no reader can
// observe a terminal state that a daemon restart would not: durable
// before visible. apply reports whether the transition applies (false
// leaves the job untouched). A failed write keeps the in-memory state,
// annotated; the job re-runs on the next daemon start, bit-identically.
func (j *job) commit(write resultWriter, apply func(*job) bool) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !apply(j) {
		return false
	}
	j.persistLocked(write)
	return true
}

// persistLocked writes the terminal documents; the caller holds j.mu.
func (j *job) persistLocked(write resultWriter) {
	if write == nil {
		return
	}
	if err := write(j.statusLocked(), j.canonical); err != nil {
		j.st.Error = "persist: " + err.Error()
	}
}

// finish records a terminal state durably (see commit).
func (j *job) finish(write resultWriter, state string, exitCode int, mut func(*job)) {
	j.commit(write, func(j *job) bool {
		j.st.State = state
		j.st.ExitCode = exitCode
		j.cancel = nil
		if mut != nil {
			mut(j)
		}
		return true
	})
}

// requestCancel implements the cancel endpoint: a queued job becomes
// terminal immediately (durably, via write), a running one has its
// context canceled (the completion path records the terminal state).
// The return reports whether anything changed.
func (j *job) requestCancel(write resultWriter) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.st.State {
	case StateQueued:
		j.userCancel = true
		j.st.State = StateCanceled
		j.st.ExitCode = exitAnnotated
		j.st.Error = "canceled before start"
		j.persistLocked(write)
		return true
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
		return true
	default:
		return false
	}
}

func (j *job) isUserCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCancel
}

func (j *job) setResumed() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st.Resumed = true
}

// status snapshots the job document.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

// statusLocked renders the document; the caller holds j.mu.
func (j *job) statusLocked() Status {
	st := j.st
	st.CheckpointInsts = j.ckptInsts.Load()
	return st
}

// snapshot returns the canonical bytes, wall time, and status document
// from one locked read — the result endpoint's view. Reading the bytes
// and the status separately would let the job change state in between
// and pair a body with a contradicting status.
func (j *job) snapshot() (json.RawMessage, int64, Status) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.canonical, j.st.WallNS, j.statusLocked()
}

// cachedDoc is the slice of the canonical result document a job served
// from the cache needs to rebuild its status fields; the full sim
// payload stays opaque (the bytes are served verbatim).
type cachedDoc struct {
	Err string `json:"err"`
}

// serveFromCache completes a still-queued job durably with cached
// canonical bytes: the status fields are rebuilt from the document's
// own header fields, so a cache-served job is indistinguishable from a
// run — except for its Cache disposition and zero wall time. Returns
// false (job untouched) when the job already left the queued state or
// the bytes do not parse as a canonical result document.
func (j *job) serveFromCache(write resultWriter, canonical []byte, disp string) bool {
	var doc cachedDoc
	if err := json.Unmarshal(canonical, &doc); err != nil {
		return false
	}
	from := Status{ExitCode: exitClean, Error: doc.Err}
	if doc.Err != "" {
		from.ExitCode = exitAnnotated
	}
	return j.serveShared(write, canonical, from, disp)
}

// serveShared completes a still-queued job durably with canonical bytes
// verbatim and the derived fields of the document they came from (a
// coalesced follower's leader, or a cache entry's header); disp, when
// set, replaces the job's cache disposition. Returns false when the job
// already left the queued state (a follower canceled while waiting).
func (j *job) serveShared(write resultWriter, canonical json.RawMessage, from Status, disp string) bool {
	return j.commit(write, func(j *job) bool {
		if j.st.State != StateQueued {
			return false
		}
		j.st.State = StateDone
		j.st.ExitCode = from.ExitCode
		j.canonical = canonical
		j.st.Error = from.Error
		j.st.WallNS = 0
		j.st.Interrupted = false
		if disp != "" {
			j.st.Cache = disp
		}
		return true
	})
}

// stillQueued reports whether the job is still waiting (a follower can
// be canceled while its leader runs).
func (j *job) stillQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.State == StateQueued
}

// promote clears a follower's coalesced identity when it becomes a
// leader itself (its original leader ended with no result to share).
func (j *job) promote() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.st.DedupedOf = ""
	if j.st.Cache == cacheCoalesced {
		j.st.Cache = cacheMiss
	}
}
