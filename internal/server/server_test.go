package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wrongpath"
)

// quickSpec is a sub-100ms job; longSpec retires ~2.6M instructions
// (about a second of host time), long enough to observe running state,
// checkpoints, and mid-run drains.
func quickSpec(wp string, seed uint64) JobSpec {
	return JobSpec{Suite: "gap", Bench: "bfs", WP: wp, N: 1024, Degree: 4, Seed: seed}
}

func longSpec() JobSpec {
	return JobSpec{Suite: "gap", Bench: "bfs", WP: "conv", N: 16384, Degree: 8}
}

// longSpecSeed is longSpec with a distinct input seed — a distinct
// fingerprint, so submissions neither coalesce nor share cache entries
// (tests of queueing and backpressure need genuinely distinct jobs).
func longSpecSeed(seed uint64) JobSpec {
	sp := longSpec()
	sp.Seed = seed
	return sp
}

// waitFor polls the job until pred holds (test-scale backoff, bounded
// by iteration count so the package stays free of deadline clocks).
func waitFor(t *testing.T, s *Server, id string, what string, pred func(Status) bool) Status {
	t.Helper()
	for i := 0; i < 30_000; i++ {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Job(id)
	t.Fatalf("job %s never reached %s; last status %+v", id, what, st)
	return Status{}
}

func terminal(st Status) bool {
	return st.State == StateDone || st.State == StateFailed || st.State == StateCanceled
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
	})
	return s
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for _, spec := range []JobSpec{
		{Suite: "nope", Bench: "bfs"},
		{Suite: "gap", Bench: "nope"},
		{Suite: "gap", Bench: "bfs", WP: "quantum"},
		{Suite: "gap", Bench: "bfs", TimeoutMS: -1},
		{Suite: "gap", Bench: "bfs", Batch: -1},
	} {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
	if got := s.Metrics().Counter("wpserved_jobs_rejected_total").Value(); got != 5 {
		t.Errorf("rejected counter = %d, want 5", got)
	}
}

// TestConcurrentJobsMatchDirect is the conformance acceptance: eight
// concurrent served jobs across every technique produce results
// byte-identical to direct sim runs of the same specs.
func TestConcurrentJobsMatchDirect(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 16})
	var specs []JobSpec
	for _, k := range wrongpath.Kinds() {
		for _, seed := range []uint64{1, 2} {
			specs = append(specs, quickSpec(k.String(), seed))
		}
	}
	if len(specs) < 8 {
		t.Fatalf("want >= 8 specs, have %d", len(specs))
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		st := waitFor(t, s, id, "terminal", terminal)
		if st.State != StateDone || st.ExitCode != exitClean {
			t.Fatalf("job %s: state %s exit %d error %q", id, st.State, st.ExitCode, st.Error)
		}
		served, _, err := s.Result(id)
		if err != nil || served == nil {
			t.Fatalf("Result(%s): %v (nil=%v)", id, err, served == nil)
		}
		direct, err := RunDirect(specs[i])
		if err != nil {
			t.Fatalf("RunDirect(%d): %v", i, err)
		}
		want, err := CanonicalResult(direct)
		if err != nil {
			t.Fatalf("CanonicalResult: %v", err)
		}
		if !bytes.Equal(served, want) {
			t.Errorf("job %s (%s seed %d): served result diverges from direct run\nserved:\n%s\ndirect:\n%s",
				id, specs[i].WP, specs[i].Seed, served, want)
		}
	}
}

// TestQueueFullRejects exercises admission backpressure end to end
// through the HTTP handler: 429 plus Retry-After once QueueDepth jobs
// wait behind a busy worker.
func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(spec JobSpec) *http.Response {
		t.Helper()
		body, _ := json.Marshal(spec)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		return resp
	}
	decodeStatus := func(resp *http.Response) Status {
		t.Helper()
		defer resp.Body.Close()
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding status: %v", err)
		}
		return st
	}

	resp := post(longSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	busy := decodeStatus(resp)
	waitFor(t, s, busy.ID, "running", func(st Status) bool { return st.State == StateRunning })

	// Distinct seeds: identical specs would coalesce onto the running
	// leader instead of occupying admission slots.
	var queued []string
	for i := 0; i < 2; i++ {
		resp := post(longSpecSeed(uint64(i + 1)))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("fill %d: status %d, want 202", i, resp.StatusCode)
		}
		queued = append(queued, decodeStatus(resp).ID)
	}
	resp = post(longSpecSeed(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After header")
	}
	resp.Body.Close()

	for _, id := range append([]string{busy.ID}, queued...) {
		if _, err := s.Cancel(id); err != nil {
			t.Fatalf("Cancel(%s): %v", id, err)
		}
	}
	for _, id := range append([]string{busy.ID}, queued...) {
		st := waitFor(t, s, id, "terminal", terminal)
		if st.State != StateCanceled || st.ExitCode != exitAnnotated {
			t.Errorf("job %s: state %s exit %d, want canceled/3", id, st.State, st.ExitCode)
		}
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	busy, err := s.Submit(longSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, s, busy.ID, "running", func(st Status) bool { return st.State == StateRunning })
	queued, err := s.Submit(quickSpec("conv", 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st, err := s.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel(queued): %v", err)
	}
	if st.State != StateCanceled || st.ExitCode != exitAnnotated {
		t.Errorf("queued cancel: state %s exit %d, want canceled/3 immediately", st.State, st.ExitCode)
	}
	if _, err := s.Cancel(busy.ID); err != nil {
		t.Fatalf("Cancel(running): %v", err)
	}
	st = waitFor(t, s, busy.ID, "terminal", terminal)
	if st.State != StateCanceled || st.ExitCode != exitAnnotated {
		t.Errorf("running cancel: state %s exit %d, want canceled/3", st.State, st.ExitCode)
	}
	if res, _, _ := s.Result(busy.ID); res != nil {
		t.Error("canceled job exposes a result document; partial results must not be served")
	}
	if _, err := s.Cancel("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("Cancel(unknown) = %v, want ErrUnknownJob", err)
	}
}

func TestTimeoutCancelsJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	spec := longSpec()
	spec.TimeoutMS = 50
	st, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitFor(t, s, st.ID, "terminal", terminal)
	if st.State != StateCanceled || st.ExitCode != exitAnnotated {
		t.Fatalf("timed-out job: state %s exit %d error %q, want canceled/3", st.State, st.ExitCode, st.Error)
	}
}

// TestDrainInterruptsAndResumes is the crash-safety acceptance: a drain
// stops a running job at a lane boundary, the job survives as
// queued-on-disk state, and a second server over the same state
// directory resumes it to a result byte-identical to an uninterrupted
// direct run.
func TestDrainInterruptsAndResumes(t *testing.T) {
	stateDir := t.TempDir()
	reg := obs.NewRegistry()
	s1, err := New(Config{Workers: 1, StateDir: stateDir, CheckpointEvery: 100_000, Metrics: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := longSpec()
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	id := st.ID
	waitFor(t, s1, id, "first checkpoint", func(st Status) bool { return st.CheckpointInsts >= 200_000 })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	st, _ = s1.Job(id)
	if st.State != StateQueued || !st.Interrupted {
		t.Fatalf("after drain: state %s interrupted %v, want queued/interrupted", st.State, st.Interrupted)
	}
	if _, err := os.Stat(filepath.Join(stateDir, id, "result.json")); err == nil {
		t.Fatal("drain persisted a result document for an interrupted job")
	}
	if snaps, err := filepath.Glob(filepath.Join(stateDir, id, "ckpt", "*.wpsnap")); err != nil || len(snaps) == 0 {
		t.Fatalf("no checkpoint snapshots on disk after drain (err %v)", err)
	}

	s2 := newTestServer(t, Config{Workers: 1, StateDir: stateDir, CheckpointEvery: 100_000})
	st = waitFor(t, s2, id, "terminal", terminal)
	if st.State != StateDone || st.ExitCode != exitClean {
		t.Fatalf("resumed job: state %s exit %d error %q", st.State, st.ExitCode, st.Error)
	}
	if !st.Resumed {
		t.Error("resumed job does not report Resumed")
	}
	if got := s2.Metrics().Counter("wpserved_jobs_resumed_total").Value(); got != 1 {
		t.Errorf("resumed counter = %d, want 1", got)
	}
	served, _, err := s2.Result(id)
	if err != nil || served == nil {
		t.Fatalf("Result: %v (nil=%v)", err, served == nil)
	}
	direct, err := RunDirect(spec)
	if err != nil {
		t.Fatalf("RunDirect: %v", err)
	}
	want, err := CanonicalResult(direct)
	if err != nil {
		t.Fatalf("CanonicalResult: %v", err)
	}
	if !bytes.Equal(served, want) {
		t.Errorf("drain/resume diverged from an uninterrupted run\nresumed:\n%s\ndirect:\n%s", served, want)
	}
}

// TestTerminalStatePersistsAcrossRestart: a finished job is reloaded
// read-only — same status, same bytes, no re-execution.
func TestTerminalStatePersistsAcrossRestart(t *testing.T) {
	stateDir := t.TempDir()
	s1 := newTestServer(t, Config{Workers: 1, StateDir: stateDir})
	st, err := s1.Submit(quickSpec("conv", 7))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st = waitFor(t, s1, st.ID, "terminal", terminal)
	if st.State != StateDone {
		t.Fatalf("state %s, want done", st.State)
	}
	first, _, _ := s1.Result(st.ID)

	s2 := newTestServer(t, Config{Workers: 1, StateDir: stateDir})
	got, err := s2.Job(st.ID)
	if err != nil {
		t.Fatalf("Job after restart: %v", err)
	}
	if got.State != StateDone || got.ExitCode != exitClean {
		t.Errorf("restored status %+v, want done/0", got)
	}
	reloaded, _, err := s2.Result(st.ID)
	if err != nil || !bytes.Equal(first, reloaded) {
		t.Errorf("restored result differs from the original (err %v)", err)
	}
	if n := s2.Metrics().Counter("wpserved_jobs_done_total").Value(); n != 0 {
		t.Errorf("restart re-executed a finished job (done counter %d)", n)
	}
}

// pollDurable polls the jobs round-robin until each is terminal and, at
// the first poll that reads a terminal state, requires the job's
// documents to be on disk already: spec.json and result.json, plus
// canonical.json for a done job.
func pollDurable(t *testing.T, s *Server, stateDir string, ids ...string) {
	t.Helper()
	pending := map[string]bool{}
	for _, id := range ids {
		pending[id] = true
	}
	// The bound only guards against a hang: under -race the long job
	// alone takes over 30 s on a 2-vCPU host.
	for i := 0; i < 240_000 && len(pending) > 0; i++ {
		for _, id := range ids {
			if !pending[id] {
				continue
			}
			st, err := s.Job(id)
			if err != nil {
				t.Fatalf("Job(%s): %v", id, err)
			}
			if !terminal(st) {
				continue
			}
			delete(pending, id)
			files := []string{"spec.json", "result.json"}
			if st.State == StateDone {
				files = append(files, "canonical.json")
			}
			for _, f := range files {
				if _, err := os.Stat(filepath.Join(stateDir, id, f)); err != nil {
					t.Errorf("%s reads %s before %s is on disk: %v", id, st.State, f, err)
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	if len(pending) > 0 {
		t.Fatalf("jobs never turned terminal: %v", pending)
	}
}

// TestTerminalStateDurableBeforeVisible: a poller that reads done must
// already find the job's documents on disk, so it never sees a state a
// restart would not — on every terminal path: a completed run, a
// dequeue-time cache hit, and a coalesced follower. It needs no
// scheduler luck: the documents are written while the job's lock is
// held (see TestResultWriterRunsBeforePublish), so no poll can read
// the state first.
func TestTerminalStateDurableBeforeVisible(t *testing.T) {
	stateDir := t.TempDir()
	// Two unfinished twins on disk: the first re-admitted one runs, the
	// second is served from the cache the first one filled.
	spec := quickSpec("conv", 11)
	writeJobDir(t, stateDir, "job-000001", spec, nil)
	writeJobDir(t, stateDir, "job-000002", spec, nil)
	s := newTestServer(t, Config{Workers: 1, StateDir: stateDir})
	pollDurable(t, s, stateDir, "job-000001", "job-000002")
	if st, _ := s.Job("job-000002"); st.Cache != cacheHit {
		t.Errorf("twin disposition %q, want a dequeue-time cache hit", st.Cache)
	}

	lead, err := s.Submit(longSpecSeed(43))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, s, lead.ID, "running", func(st Status) bool { return st.State == StateRunning })
	follower, err := s.Submit(longSpecSeed(43))
	if err != nil {
		t.Fatalf("follower Submit: %v", err)
	}
	if follower.Cache != cacheCoalesced {
		t.Fatalf("follower disposition %q, want coalesced", follower.Cache)
	}
	pollDurable(t, s, stateDir, lead.ID, follower.ID)
}

// TestResultWriterRunsBeforePublish: every terminal transition calls
// the result writer while the job's lock is held, with the terminal
// document, so no reader can observe the state before the write
// returns; a failed write annotates the job instead of losing it.
func TestResultWriterRunsBeforePublish(t *testing.T) {
	canonical, err := CanonicalResult(&sim.Result{WP: wrongpath.Conv})
	if err != nil {
		t.Fatal(err)
	}
	transitions := []struct {
		name  string
		want  string
		apply func(*job, resultWriter) bool
	}{
		{"finish", StateDone, func(j *job, w resultWriter) bool {
			j.finish(w, StateDone, exitClean, nil)
			return true
		}},
		{"serveFromCache", StateDone, func(j *job, w resultWriter) bool {
			return j.serveFromCache(w, canonical, cacheHit)
		}},
		{"serveShared", StateDone, func(j *job, w resultWriter) bool {
			return j.serveShared(w, canonical, Status{State: StateDone}, "")
		}},
		{"requestCancel", StateCanceled, func(j *job, w resultWriter) bool {
			return j.requestCancel(w)
		}},
	}
	for _, tr := range transitions {
		j := newJob("job-000001", 1, quickSpec("conv", 1), "")
		calls := 0
		write := func(st Status, _ json.RawMessage) error {
			calls++
			if j.mu.TryLock() {
				j.mu.Unlock()
				t.Errorf("%s: terminal state readable while its documents are written", tr.name)
			}
			if st.State != tr.want {
				t.Errorf("%s: writer got state %s, want %s", tr.name, st.State, tr.want)
			}
			return errors.New("disk full")
		}
		if !tr.apply(j, write) || calls != 1 {
			t.Fatalf("%s: transition not applied or writer called %d times", tr.name, calls)
		}
		if st := j.status(); st.State != tr.want || !strings.HasPrefix(st.Error, "persist: ") {
			t.Errorf("%s: after a failed write: %+v, want %s annotated persist error", tr.name, st, tr.want)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	if resp, _ := get("/jobs/job-000404"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status: %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/jobs/job-000404/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job result: %d, want 404", resp.StatusCode)
	}

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"suite":"gap"`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated body: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"suite":"gap","bench":"bfs","flux":1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	body, _ := json.Marshal(quickSpec("conv", 3))
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, st)
	}
	waitFor(t, s, st.ID, "terminal", terminal)

	if resp, body := get("/jobs/" + st.ID + "/result"); resp.StatusCode != http.StatusOK {
		t.Errorf("result: %d %s", resp.StatusCode, body)
	} else {
		// The body is the canonical document verbatim — the byte-identity
		// contract forbids any envelope around it.
		direct, _, _ := s.Result(st.ID)
		if !bytes.Equal(body, direct) {
			t.Error("HTTP result body differs from the stored canonical bytes")
		}
		if got := resp.Header.Get("X-Wpserved-Job"); got != st.ID {
			t.Errorf("X-Wpserved-Job = %q, want %q", got, st.ID)
		}
	}
	if resp, body := get("/jobs"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), st.ID) {
		t.Errorf("list: %d %s", resp.StatusCode, body)
	}
	if resp, body := get("/metrics"); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), "wpserved_jobs_submitted_total") {
		t.Errorf("metrics: %d %s", resp.StatusCode, body)
	}

	// A canceled-while-queued job holds no result: 409, not 404.
	busy, err := s.Submit(longSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, s, busy.ID, "running", func(st Status) bool { return st.State == StateRunning })
	queued, err := s.Submit(quickSpec("conv", 4))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if resp, _ := get("/jobs/" + queued.ID + "/result"); resp.StatusCode != http.StatusConflict {
		t.Errorf("result of canceled job: %d, want 409", resp.StatusCode)
	}
	if _, err := s.Cancel(busy.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitFor(t, s, busy.ID, "terminal", terminal)

	// Draining flips admission to 503 and healthz to "draining".
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	if resp, body := get("/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "draining") {
		t.Errorf("healthz while draining: %d %s", resp.StatusCode, body)
	}
}
