package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workloads/gap"
)

// drainNow drains a server mid-test so a second one can be opened over
// the same state directory (the cleanup drain is idempotent).
func drainNow(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// writeJobDir fabricates an on-disk job record: a spec, and optionally
// a terminal status document.
func writeJobDir(t *testing.T, stateDir, name string, spec JobSpec, res *Status) {
	t.Helper()
	dir := filepath.Join(stateDir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dir, err)
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatalf("marshal spec: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spec.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write spec.json: %v", err)
	}
	if res != nil {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatalf("marshal status: %v", err)
		}
		if err := os.WriteFile(filepath.Join(dir, "result.json"), append(data, '\n'), 0o644); err != nil {
			t.Fatalf("write result.json: %v", err)
		}
	}
}

// oracle runs the spec directly and returns the canonical bytes every
// served copy must match, byte for byte.
func oracle(t *testing.T, spec JobSpec) []byte {
	t.Helper()
	res, err := RunDirect(spec)
	if err != nil {
		t.Fatalf("RunDirect: %v", err)
	}
	want, err := CanonicalResult(res)
	if err != nil {
		t.Fatalf("CanonicalResult: %v", err)
	}
	return want
}

// TestSubmitRejectsOversizedSpec: a body past maxSpecBytes is the
// client's 413, not a generic 400 — MaxBytesReader's typed error must
// be mapped, not string-matched into "decoding job spec".
func TestSubmitRejectsOversizedSpec(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	big := `{"suite":"` + strings.Repeat("g", maxSpecBytes) + `"}`
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d (%s), want 413", resp.StatusCode, buf.String())
	}
	if !strings.Contains(buf.String(), "exceeds") {
		t.Errorf("413 body %q does not name the limit", buf.String())
	}
}

// TestSubmitRejectsTrailingGarbage: exactly one JSON document per
// submission. json.Decoder stops at the first complete value, so
// without the second-Decode check a trailer would be silently dropped.
func TestSubmitRejectsTrailingGarbage(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, err := json.Marshal(quickSpec("conv", 21))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(string(spec)+`{"junk":1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), "trailing data") {
		t.Fatalf("trailing garbage: status %d body %q, want 400 naming trailing data", resp.StatusCode, buf.String())
	}

	// Trailing whitespace is not garbage: Decode skips it to io.EOF.
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(string(spec)+"\n\t "))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("spec with trailing whitespace: status %d, want 202", resp.StatusCode)
	}
	waitFor(t, s, st.ID, "terminal", terminal)
}

// TestLoadStateRejectsMalformedJobDirs: only directories that
// round-trip through jobID are admitted. The lenient Sscanf parse this
// replaces admitted "job-12abc" as sequence 12 and "job-0000012" as a
// second job-000012.
func TestLoadStateRejectsMalformedJobDirs(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec("wpemul", 12)
	writeJobDir(t, dir, "job-000012", spec, &Status{
		ID: "job-000012", State: StateCanceled, ExitCode: exitAnnotated,
		Spec: spec, Error: "canceled before start",
	})
	garbage := []string{"job-12abc", "job-0000012", "job-12", "job-"}
	for _, name := range garbage {
		// Each gets a valid spec so a lenient parser would re-admit and
		// re-run it.
		writeJobDir(t, dir, name, quickSpec("wpemul", 99), nil)
	}

	s := newTestServer(t, Config{Workers: 1, StateDir: dir})
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "job-000012" {
		t.Fatalf("restored %d jobs (%+v), want exactly job-000012", len(jobs), jobs)
	}
	for _, name := range garbage {
		if _, err := s.Job(name); err == nil {
			t.Errorf("malformed dir %q was admitted as a job", name)
		}
	}
	st, err := s.Submit(quickSpec("conv", 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "job-000013" {
		t.Errorf("new job id %s, want job-000013 (sequence from the one valid dir)", st.ID)
	}
	waitFor(t, s, st.ID, "terminal", terminal)
}

// TestStaleCanonicalRemovedOnReadmission simulates a crash between
// persistResult's two writes: canonical.json exists, result.json does
// not. Re-admission must drop the relic — if the re-run ends without a
// result (canceled here), a later daemon run must not serve the stale
// bytes as if the job had completed.
func TestStaleCanonicalRemovedOnReadmission(t *testing.T) {
	dir := t.TempDir()
	writeJobDir(t, dir, "job-000001", longSpec(), nil)
	stale := filepath.Join(dir, "job-000001", "canonical.json")
	if err := os.WriteFile(stale, []byte(`{"wp":"stale-crash-relic"}`), 0o644); err != nil {
		t.Fatalf("write relic: %v", err)
	}

	s := newTestServer(t, Config{Workers: 1, StateDir: dir})
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale canonical.json survived re-admission (stat err %v)", err)
	}
	if data, _, err := s.Result("job-000001"); err != nil || data != nil {
		t.Fatalf("re-admitted job serves bytes %q (err %v), want none", data, err)
	}
	if _, err := s.Cancel("job-000001"); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	st := waitFor(t, s, "job-000001", "terminal", terminal)
	if st.State != StateCanceled {
		t.Fatalf("state %s, want canceled", st.State)
	}
	drainNow(t, s)

	s2 := newTestServer(t, Config{Workers: 1, StateDir: dir})
	got, err := s2.Job("job-000001")
	if err != nil || got.State != StateCanceled {
		t.Fatalf("restored state %+v (err %v), want canceled", got, err)
	}
	if data, _, err := s2.Result("job-000001"); err != nil || data != nil {
		t.Errorf("restarted daemon serves crash-relic bytes %q (err %v)", data, err)
	}
}

// TestCanonicalIgnoredForNonDoneJob: a canceled record next to a
// canonical.json (another crash-relic shape) must not start serving a
// result the job never reported.
func TestCanonicalIgnoredForNonDoneJob(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec("conv", 5)
	writeJobDir(t, dir, "job-000001", spec, &Status{
		ID: "job-000001", State: StateCanceled, ExitCode: exitAnnotated,
		Spec: spec, Error: "canceled before start",
	})
	relic := filepath.Join(dir, "job-000001", "canonical.json")
	if err := os.WriteFile(relic, []byte(`{"wp":"relic"}`), 0o644); err != nil {
		t.Fatalf("write relic: %v", err)
	}
	s := newTestServer(t, Config{Workers: 1, StateDir: dir})
	if data, _, err := s.Result("job-000001"); err != nil || data != nil {
		t.Errorf("canceled job serves canonical bytes %q (err %v), want none", data, err)
	}
}

// TestResultConflictReportsCoherentState: the 409 body and the (absent)
// bytes come from one locked read, so the named state can never
// contradict the no-result response.
func TestResultConflictReportsCoherentState(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st, err := s.Submit(longSpecSeed(61))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitFor(t, s, st.ID, "terminal", terminal)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusConflict || !strings.Contains(buf.String(), "state canceled") {
		t.Fatalf("canceled result: status %d body %q, want 409 naming state canceled", resp.StatusCode, buf.String())
	}
}

// TestCacheHitConformance is the cache acceptance oracle: cache-served
// bodies are byte-identical to a direct sim run — within one daemon
// run, across a restart (the persistent tier), and after a corrupted
// entry forces the fall-through to a real run.
func TestCacheHitConformance(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec("conv", 7)
	want := oracle(t, spec)

	reg1 := obs.NewRegistry()
	s1 := newTestServer(t, Config{Workers: 2, StateDir: dir, Metrics: reg1})
	first, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if first.Cache != cacheMiss {
		t.Errorf("first submission disposition %q, want miss", first.Cache)
	}
	st := waitFor(t, s1, first.ID, "terminal", terminal)
	if st.State != StateDone || st.ExitCode != exitClean {
		t.Fatalf("first run: state %s exit %d error %q", st.State, st.ExitCode, st.Error)
	}
	got, _, _ := s1.Result(first.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("served bytes diverge from the direct run")
	}

	second, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("repeat Submit: %v", err)
	}
	if second.State != StateDone || second.Cache != cacheHit || second.WallNS != 0 {
		t.Fatalf("repeat submission %+v, want done/hit/wall 0", second)
	}
	got, _, _ = s1.Result(second.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("cache-served bytes diverge from the direct run")
	}
	if n := reg1.Counter("wpserved_sim_runs_total").Value(); n != 1 {
		t.Errorf("sim runs = %d, want 1 (the hit must not re-run)", n)
	}
	if n := reg1.Counter("wpserved_cache_hits_total").Value(); n != 1 {
		t.Errorf("cache hits = %d, want 1", n)
	}
	if n := reg1.Counter("wpserved_cache_stores_total").Value(); n != 1 {
		t.Errorf("cache stores = %d, want 1", n)
	}
	drainNow(t, s1)

	// Restart: the persistent tier under StateDir/cache survives.
	reg2 := obs.NewRegistry()
	s2 := newTestServer(t, Config{Workers: 2, StateDir: dir, Metrics: reg2})
	third, err := s2.Submit(spec)
	if err != nil {
		t.Fatalf("Submit after restart: %v", err)
	}
	if third.State != StateDone || third.Cache != cacheHit {
		t.Fatalf("post-restart submission %+v, want done/hit", third)
	}
	got, _, _ = s2.Result(third.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("post-restart cache-served bytes diverge from the direct run")
	}
	if n := reg2.Counter("wpserved_sim_runs_total").Value(); n != 0 {
		t.Errorf("sim runs after restart = %d, want 0", n)
	}
	drainNow(t, s2)

	// Corruption: a flipped byte fails self-verification; the server
	// discards the entry and falls through to a real, identical run.
	entries, err := filepath.Glob(filepath.Join(dir, "cache", "*.wpres"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("cache entries %v (err %v), want exactly one", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatalf("read entry: %v", err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatalf("corrupt entry: %v", err)
	}
	reg3 := obs.NewRegistry()
	s3 := newTestServer(t, Config{Workers: 2, StateDir: dir, Metrics: reg3})
	fourth, err := s3.Submit(spec)
	if err != nil {
		t.Fatalf("Submit over corrupt entry: %v", err)
	}
	if fourth.Cache != cacheMiss {
		t.Fatalf("corrupt-entry submission disposition %q, want miss (never a wrong answer)", fourth.Cache)
	}
	st = waitFor(t, s3, fourth.ID, "terminal", terminal)
	if st.State != StateDone || st.ExitCode != exitClean {
		t.Fatalf("re-run after corruption: state %s exit %d", st.State, st.ExitCode)
	}
	got, _, _ = s3.Result(fourth.ID)
	if !bytes.Equal(got, want) {
		t.Errorf("re-run after corruption diverges from the direct run")
	}
	if n := reg3.Counter("wpserved_cache_corrupt_total").Value(); n != 1 {
		t.Errorf("corrupt counter = %d, want 1", n)
	}
	if n := reg3.Counter("wpserved_sim_runs_total").Value(); n != 1 {
		t.Errorf("sim runs over corrupt entry = %d, want 1", n)
	}
}

// TestCoalescedSubmissionsRunOnce: followers of a running leader share
// its execution — one sim run, N done jobs, every body byte-identical
// to the direct run.
func TestCoalescedSubmissionsRunOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Metrics: reg})
	spec := longSpecSeed(41)
	lead, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, s, lead.ID, "running", func(st Status) bool { return st.State == StateRunning })

	var followers []string
	for i := 0; i < 3; i++ {
		st, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("follower Submit: %v", err)
		}
		if st.State != StateQueued || st.Cache != cacheCoalesced || st.DedupedOf != lead.ID {
			t.Fatalf("follower %+v, want queued/coalesced/deduped_of=%s", st, lead.ID)
		}
		followers = append(followers, st.ID)
	}

	st := waitFor(t, s, lead.ID, "terminal", terminal)
	if st.State != StateDone || st.ExitCode != exitClean {
		t.Fatalf("leader: state %s exit %d error %q", st.State, st.ExitCode, st.Error)
	}
	want := oracle(t, spec)
	leadBytes, _, _ := s.Result(lead.ID)
	if !bytes.Equal(leadBytes, want) {
		t.Fatalf("leader bytes diverge from the direct run")
	}
	for _, id := range followers {
		st := waitFor(t, s, id, "terminal", terminal)
		if st.State != StateDone || st.Cache != cacheCoalesced || st.DedupedOf != lead.ID || st.WallNS != 0 {
			t.Errorf("settled follower %+v, want done/coalesced/deduped_of=%s/wall 0", st, lead.ID)
		}
		got, _, _ := s.Result(id)
		if !bytes.Equal(got, want) {
			t.Errorf("follower %s bytes diverge from the direct run", id)
		}
	}
	if n := reg.Counter("wpserved_sim_runs_total").Value(); n != 1 {
		t.Errorf("sim runs = %d, want 1 for 4 identical submissions", n)
	}
	if n := reg.Counter("wpserved_cache_coalesced_total").Value(); n != 3 {
		t.Errorf("coalesced counter = %d, want 3", n)
	}
	if n := reg.Counter("wpserved_jobs_done_total").Value(); n != 4 {
		t.Errorf("done counter = %d, want 4", n)
	}
}

// TestConcurrentIdenticalSubmissionsRunOnce is the metrics-asserted
// acceptance: N racing identical submissions execute the simulation
// exactly once, whichever interleaving of probe, coalesce, and
// completion they hit.
func TestConcurrentIdenticalSubmissionsRunOnce(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 4, Metrics: reg})
	spec := quickSpec("conv", 99)
	const n = 8
	ids := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(spec)
			ids[i], errs[i] = st.ID, err
		}(i)
	}
	wg.Wait()
	want := oracle(t, spec)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("Submit %d: %v", i, errs[i])
		}
		st := waitFor(t, s, ids[i], "terminal", terminal)
		if st.State != StateDone || st.ExitCode != exitClean {
			t.Fatalf("job %s: state %s exit %d error %q", ids[i], st.State, st.ExitCode, st.Error)
		}
		got, _, _ := s.Result(ids[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %s bytes diverge from the direct run", ids[i])
		}
	}
	if n := reg.Counter("wpserved_sim_runs_total").Value(); n != 1 {
		t.Errorf("sim runs = %d, want exactly 1 for %d concurrent identical submissions", n, 8)
	}
}

// TestCanceledLeaderPromotesFollower: a leader canceled while queued
// hands its followers to a promoted successor instead of starving them.
func TestCanceledLeaderPromotesFollower(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 1, Metrics: reg})

	// Occupy the single worker so the leader stays queued.
	blocker, err := s.Submit(longSpecSeed(81))
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitFor(t, s, blocker.ID, "running", func(st Status) bool { return st.State == StateRunning })

	spec := quickSpec("wpemul", 82)
	lead, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit leader: %v", err)
	}
	f1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit follower: %v", err)
	}
	f2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit follower: %v", err)
	}
	if f1.DedupedOf != lead.ID || f2.DedupedOf != lead.ID {
		t.Fatalf("followers %+v / %+v not coalesced onto %s", f1, f2, lead.ID)
	}
	// A follower canceled while waiting stays canceled through the
	// promotion.
	if _, err := s.Cancel(f2.ID); err != nil {
		t.Fatalf("Cancel follower: %v", err)
	}
	if _, err := s.Cancel(lead.ID); err != nil {
		t.Fatalf("Cancel leader: %v", err)
	}
	st := waitFor(t, s, f1.ID, "terminal", terminal)
	if st.State != StateDone || st.ExitCode != exitClean {
		t.Fatalf("promoted follower: state %s exit %d error %q", st.State, st.ExitCode, st.Error)
	}
	if st.DedupedOf != "" || st.Cache != cacheMiss {
		t.Errorf("promoted follower keeps coalesced identity: %+v", st)
	}
	got, _, _ := s.Result(f1.ID)
	if !bytes.Equal(got, oracle(t, spec)) {
		t.Errorf("promoted follower bytes diverge from the direct run")
	}
	if st, _ := s.Job(lead.ID); st.State != StateCanceled {
		t.Errorf("leader state %s, want canceled", st.State)
	}
	if st, _ := s.Job(f2.ID); st.State != StateCanceled {
		t.Errorf("canceled follower state %s, want canceled", st.State)
	}
	if _, err := s.Cancel(blocker.ID); err != nil {
		t.Fatalf("Cancel blocker: %v", err)
	}
	waitFor(t, s, blocker.ID, "terminal", terminal)
}

// TestFingerprintResolvesDefaults: specs address by the request they
// translate to, so spelling out a default shares the address of leaving
// it zero, and fields that never reach the request stay outside it.
func TestFingerprintResolvesDefaults(t *testing.T) {
	base := JobSpec{Suite: "gap", Bench: "bfs"}
	fp := base.Fingerprint()
	if fp == "" {
		t.Fatal("a valid spec is not addressable")
	}
	for _, same := range []JobSpec{
		{Suite: "gap", Bench: "bfs", N: gap.DefaultParams().N},
		{Suite: "gap", Bench: "bfs", Degree: gap.DefaultParams().Degree, Seed: gap.DefaultParams().Seed},
		{Suite: "gap", Bench: "bfs", WP: "conv"},
		{Suite: "gap", Bench: "bfs", TimeoutMS: 5, CheckpointEvery: 7, Batch: 1},
	} {
		if got := same.Fingerprint(); got != fp {
			t.Errorf("%+v: fingerprint differs from the defaulted spec", same)
		}
	}
	for _, other := range []JobSpec{
		{Suite: "gap", Bench: "bfs", N: 1024},
		{Suite: "gap", Bench: "cc"},
		{Suite: "gap", Bench: "bfs", WP: "nowp"},
	} {
		if got := other.Fingerprint(); got == fp || got == "" {
			t.Errorf("%+v: fingerprint %q, want its own address", other, got)
		}
	}
	if got := (JobSpec{Suite: "gap", Bench: "nope"}).Fingerprint(); got != "" {
		t.Errorf("invalid spec fingerprint %q, want \"\"", got)
	}
}

// TestCorruptStateDegradesOneJob: a torn result.json re-admits its job,
// which re-runs to the direct-run bytes; a torn spec.json sets its job
// directory aside. The daemon starts either way, and untouched jobs keep
// their bytes.
func TestCorruptStateDegradesOneJob(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{quickSpec("conv", 31), quickSpec("conv", 32), quickSpec("conv", 33)}
	s1 := newTestServer(t, Config{Workers: 1, StateDir: dir})
	for _, sp := range specs {
		st, err := s1.Submit(sp)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitFor(t, s1, st.ID, "terminal", terminal)
	}
	drainNow(t, s1)

	job := func(name, file string) string { return filepath.Join(dir, name, file) }
	untouched := map[string][]byte{}
	for _, f := range []string{"spec.json", "result.json", "canonical.json"} {
		data, err := os.ReadFile(job("job-000001", f))
		if err != nil {
			t.Fatal(err)
		}
		untouched[f] = data
	}
	if err := os.WriteFile(job("job-000002", "result.json"), []byte(`{"state":"do`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(job("job-000003", "spec.json"), []byte(`{"suite":`), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s2 := newTestServer(t, Config{Workers: 1, StateDir: dir, Metrics: reg, CacheMax: -1})
	if n := reg.Counter("wpserved_state_corrupt_total").Value(); n != 2 {
		t.Errorf("state corrupt counter = %d, want 2", n)
	}
	st := waitFor(t, s2, "job-000002", "terminal", terminal)
	if st.State != StateDone || st.ExitCode != exitClean {
		t.Fatalf("re-admitted job: state %s exit %d error %q", st.State, st.ExitCode, st.Error)
	}
	if got, _, _ := s2.Result("job-000002"); !bytes.Equal(got, oracle(t, specs[1])) {
		t.Error("re-admitted job's bytes diverge from the direct run")
	}
	if _, err := os.Stat(job("job-000002", "result.json.corrupt")); err != nil {
		t.Errorf("torn result.json was not set aside: %v", err)
	}
	if _, err := s2.Job("job-000003"); err == nil {
		t.Error("job with a torn spec.json was admitted")
	}
	if _, err := os.Stat(filepath.Join(dir, "job-000003.corrupt", "spec.json")); err != nil {
		t.Errorf("job dir with a torn spec.json was not set aside: %v", err)
	}
	for f, want := range untouched {
		if got, err := os.ReadFile(job("job-000001", f)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("untouched job-000001/%s changed (err %v)", f, err)
		}
	}
	if next, err := s2.Submit(quickSpec("conv", 34)); err != nil || next.ID != "job-000004" {
		t.Errorf("next submission %q (err %v), want job-000004", next.ID, err)
	}
}
