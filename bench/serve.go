package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/resultcache"
	"repro/internal/server"
	"repro/internal/wrongpath"
)

// pollEvery is how long a client waits between status polls of a job
// that is still queued or running.
const pollEvery = 2 * time.Millisecond

// serveOpts configures the serve phase.
type serveOpts struct {
	plan    servePlan
	seed    uint64
	workDir string // scratch space for the traced run's store drives
	hs      *hostSpeed
	rec     *recorder // non-nil in the traced run
	root    int
}

// serveRun is the outcome of the serve phase.
type serveRun struct {
	hit, miss, coalesced  []float64            // submit to result body, ms
	submit                map[string][]float64 // POST /jobs by disposition, ms
	result                []float64            // GET result, ms
	polls                 int
	missSim, missOverhead []float64 // the job's own wall time, and the rest, ms
	cycleJobsS            []float64 // completed jobs per second of each cycle of epochs
	jobs                  int
	simRuns               uint64
	stateBytes, ckptBytes int64
	persisted, ckptMisses int
	rcGet, rcPut, fp      drive
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	spec    server.JobSpec
	client  int
	id      string
	disp    string
	start   time.Time
	latency time.Duration
	submit  time.Duration
	pollNS  time.Duration
	polls   int
	resAt   time.Time
	result  time.Duration
	wallNS  int64
	body    []byte
	err     error
}

// loadClient issues the benchmark's HTTP calls. Its transport holds at
// most two connections, one per closed-loop client.
type loadClient struct {
	base string
	http *http.Client
}

func (cl *loadClient) do(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, cl.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (cl *loadClient) status(method, path string, body []byte, want int) (server.Status, error) {
	var st server.Status
	data, err := cl.do(method, path, body, want)
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// job submits spec, polls until the job is terminal and fetches its
// result: the whole wait a wpserved caller sees.
func (cl *loadClient) job(client int, spec server.JobSpec) (o jobOutcome) {
	o = jobOutcome{spec: spec, client: client, start: time.Now()}
	body, err := json.Marshal(spec)
	if err != nil {
		o.err = err
		return o
	}
	st, err := cl.status(http.MethodPost, "/jobs", body, http.StatusAccepted)
	o.submit = time.Since(o.start)
	if err != nil {
		o.err = err
		return o
	}
	o.id, o.disp = st.ID, st.Cache
	for st.State == server.StateQueued || st.State == server.StateRunning {
		time.Sleep(pollEvery)
		t := time.Now()
		st, err = cl.status(http.MethodGet, "/jobs/"+o.id, nil, http.StatusOK)
		o.pollNS += time.Since(t)
		o.polls++
		if err != nil {
			o.err = err
			return o
		}
	}
	if st.State != server.StateDone || st.ExitCode != 0 {
		o.err = fmt.Errorf("job %s ended %s with exit code %d: %s", o.id, st.State, st.ExitCode, st.Error)
		return o
	}
	o.wallNS = st.WallNS
	o.resAt = time.Now()
	o.body, o.err = cl.do(http.MethodGet, "/jobs/"+o.id+"/result", nil, http.StatusOK)
	o.result = time.Since(o.resAt)
	o.latency = time.Since(o.start)
	return o
}

// specsFor returns epoch e's fresh specs: one new input, in every
// technique. Inputs cycle through the plan's benchmarks; each epoch's
// input seed is new, so no epoch repeats an earlier one's work.
func specsFor(p servePlan, seed uint64, e int) []server.JobSpec {
	out := make([]server.JobSpec, len(techniques))
	for j, k := range techniques {
		out[j] = server.JobSpec{
			Suite: p.suite, Bench: p.benches[e%len(p.benches)], WP: k.String(),
			MaxInsts: p.maxInsts,
			N:        p.params.N, Degree: p.params.Degree, Scale: p.params.Scale,
			Seed: seed*1_000_003 + uint64(e) + 1,
		}
	}
	return out
}

// runServe drives an in-process wpserved over loopback HTTP with two
// closed-loop clients in lock-step rounds. Every epoch has three rounds
// where both clients submit the same new spec (a miss and a coalesced
// follower), one round of two distinct new specs (misses), and a burst
// of rounds that repeat completed specs (cache hits).
//
// The server is ephemeral: it has no state directory. The benchmark may
// write only inside its checkout, and on a disk there the latency of
// creating the few small files every job persists swings between 0.2
// and 2 ms from one minute to the next, which would swamp a cache hit.
// The traced run measures persistence separately (drivePersistence).
func runServe(o serveOpts, chk *checker) (*serveRun, error) {
	srv, err := server.New(server.Config{Workers: 2})
	if err != nil {
		return nil, fmt.Errorf("starting the server: %w", err)
	}
	ts := httptest.NewServer(srv.Handler())
	cl := &loadClient{base: ts.URL, http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}}
	stopped := false
	stop := func() error {
		if stopped {
			return nil
		}
		stopped = true
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		err := srv.Drain(ctx)
		ts.Close()
		cl.http.CloseIdleConnections()
		return err
	}
	defer stop()

	sr := &serveRun{submit: map[string][]float64{}}
	bodies := map[string][]byte{}
	var done []server.JobSpec
	rng := rand.New(rand.NewPCG(o.seed, 0x5e7e))
	// collect checks and records a job; s scales its host times to the
	// reference host.
	collect := func(out jobOutcome, s float64) {
		sr.jobs++
		chk.attempt(out.err)
		if out.err != nil {
			return
		}
		key := out.spec.Fingerprint()
		if prev, ok := bodies[key]; !ok {
			bodies[key] = out.body
		} else if !bytes.Equal(prev, out.body) {
			chk.fail(fmt.Sprintf("job %s (%s): body differs from an earlier job of the same spec", out.id, out.disp))
		}
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 * s }
		sr.submit[out.disp] = append(sr.submit[out.disp], ms(out.submit))
		sr.result = append(sr.result, ms(out.result))
		switch out.disp {
		case "hit":
			sr.hit = append(sr.hit, ms(out.latency))
		case "coalesced":
			sr.coalesced = append(sr.coalesced, ms(out.latency))
		case "miss":
			sr.miss = append(sr.miss, ms(out.latency))
			sr.missSim = append(sr.missSim, ms(time.Duration(out.wallNS)))
			sr.missOverhead = append(sr.missOverhead, ms(out.latency-time.Duration(out.wallNS)))
			sr.polls += out.polls
		default:
			chk.fail(fmt.Sprintf("job %s: unexpected cache disposition %q", out.id, out.disp))
		}
		if r := o.rec; r != nil {
			tid := 10 + out.client
			ji := r.add(span{name: "job " + out.disp, id: out.id, tid: tid, parent: o.root, start: r.since(out.start), dur: out.latency})
			r.add(span{name: "http.submit", id: out.id, tid: tid, parent: ji, start: r.since(out.start), dur: out.submit})
			if out.polls > 0 {
				r.add(span{name: "http.poll", id: out.id, tid: tid, parent: ji, dur: out.pollNS, count: int64(out.polls), folded: true})
			}
			r.add(span{name: "http.result", id: out.id, tid: tid, parent: ji, start: r.since(out.resAt), dur: out.result})
		}
	}
	round := func(a, b server.JobSpec) []jobOutcome {
		outs := make([]jobOutcome, 2)
		var wg sync.WaitGroup
		for c, sp := range []server.JobSpec{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				outs[c] = cl.job(c, sp)
			}()
		}
		wg.Wait()
		return outs
	}

	// Epochs cycle through the plan's inputs, and only whole cycles run,
	// so every input weighs the same in the statistics. The technique
	// order rotates so that each technique is coalesced as often as the
	// others.
	var cycleJobs int
	var cycleTime time.Duration
	for e := 0; e < o.plan.epochs; e++ {
		epochStart := time.Now()
		specs := specsFor(o.plan, o.seed, e)
		n := len(specs)
		t := func(j int) server.JobSpec { return specs[(e+j)%n] }
		var outs []jobOutcome
		for _, pair := range [][2]server.JobSpec{{t(0), t(0)}, {t(1), t(1)}, {t(2), t(2)}, {t(3), t(4)}} {
			for _, out := range round(pair[0], pair[1]) {
				if out.err == nil && out.disp == "miss" {
					done = append(done, out.spec)
				}
				outs = append(outs, out)
			}
		}
		for b := 0; b < o.plan.burstRounds && len(done) > 0; b++ {
			outs = append(outs, round(done[rng.IntN(len(done))], done[rng.IntN(len(done))])...)
		}
		last := time.Since(epochStart)
		s := o.hs.scale()
		for _, out := range outs {
			collect(out, s)
		}
		cycleJobs += len(outs)
		cycleTime += scaled(last, s)
		if (e+1)%len(o.plan.benches) == 0 {
			sr.cycleJobsS = append(sr.cycleJobsS, float64(cycleJobs)/cycleTime.Seconds())
			cycleJobs, cycleTime = 0, 0
		}
	}

	checkDirect(o.plan, o.seed, bodies, chk)
	if o.rec != nil {
		data, err := cl.do(http.MethodGet, "/metrics", nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		var ms []obs.Metric
		if err := json.Unmarshal(data, &ms); err != nil {
			return nil, fmt.Errorf("parsing /metrics: %w", err)
		}
		for _, m := range ms {
			if m.Name == "wpserved_sim_runs_total" {
				sr.simRuns = m.Value
			}
		}
	}
	if err := stop(); err != nil {
		return nil, err
	}

	if o.rec == nil {
		return sr, nil
	}
	if err := drivePersistence(o, sr, chk); err != nil {
		return nil, err
	}
	if err := driveStore(o, bodies, sr); err != nil {
		return nil, err
	}
	return sr, nil
}

// drivePersistence runs the first epoch's specs, one at a time, on a
// server with a state directory and checkpoints every half sample, and
// measures what the jobs leave on disk.
func drivePersistence(o serveOpts, sr *serveRun, chk *checker) error {
	dir := filepath.Join(o.workDir, fmt.Sprintf("state-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	srv, err := server.New(server.Config{Workers: 1, StateDir: dir})
	if err != nil {
		return fmt.Errorf("starting the persistent server: %w", err)
	}
	start := time.Now()
	for _, sp := range specsFor(o.plan, o.seed, 0) {
		sp.CheckpointEvery = sp.MaxInsts / 2
		st, err := srv.Submit(sp)
		for err == nil && (st.State == server.StateQueued || st.State == server.StateRunning) {
			time.Sleep(pollEvery)
			st, err = srv.Job(st.ID)
		}
		if err == nil && (st.State != server.StateDone || st.ExitCode != 0) {
			err = fmt.Errorf("persistent job %s ended %s with exit code %d: %s", st.ID, st.State, st.ExitCode, st.Error)
		}
		chk.attempt(err)
		sr.persisted++
		if st.Cache == "miss" {
			sr.ckptMisses++
		}
	}
	o.rec.add(span{name: "server.persistence", tid: 2, parent: o.root, start: o.rec.since(start), dur: time.Since(start), count: int64(sr.persisted)})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	sr.stateBytes, sr.ckptBytes, err = stateSizes(dir)
	return err
}

// checkDirect requires four of the first epoch's served results to be
// byte-identical to server.RunDirect, the serving layer's conformance
// oracle.
func checkDirect(p servePlan, seed uint64, bodies map[string][]byte, chk *checker) {
	for _, sp := range specsFor(p, seed, 0) {
		if sp.WP == wrongpath.InstRec.String() {
			continue
		}
		served, ok := bodies[sp.Fingerprint()]
		if !ok {
			continue // the job failed and is already counted
		}
		res, err := server.RunDirect(sp)
		var direct []byte
		if err == nil {
			direct, err = server.CanonicalResult(res)
		}
		if err == nil && !bytes.Equal(direct, served) {
			err = fmt.Errorf("served result of %s/%s/%s differs from server.RunDirect", sp.Suite, sp.Bench, sp.WP)
		}
		chk.attempt(err)
	}
}

// stateSizes sums the bytes under the state directory, and separately
// those of checkpoint chains.
func stateSizes(dir string) (total, ckpt int64, err error) {
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		if strings.Contains(path, string(filepath.Separator)+"ckpt"+string(filepath.Separator)) {
			ckpt += info.Size()
		}
		return nil
	})
	return total, ckpt, err
}

// driveStore measures the result cache and the spec fingerprint alone:
// a fresh persistent cache stores and then reads back the run's own
// canonical results under their fingerprints.
func driveStore(o serveOpts, bodies map[string][]byte, sr *serveRun) error {
	dir := filepath.Join(o.workDir, fmt.Sprintf("resultcache-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	c, err := resultcache.New(dir, 0)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(bodies))
	for k := range bodies {
		keys = append(keys, k)
	}
	var putErr error
	sr.rcPut = timed(o.hs, o.rec, o.root, "resultcache.put", "", func() uint64 {
		for _, k := range keys {
			if err := c.Put(k, bodies[k]); err != nil && putErr == nil {
				putErr = err
			}
		}
		return uint64(len(keys))
	})
	if putErr != nil {
		return putErr
	}
	var missing int
	sr.rcGet = timed(o.hs, o.rec, o.root, "resultcache.get", "", func() uint64 {
		for _, k := range keys {
			if _, hit, _ := c.Get(k); !hit {
				missing++
			}
		}
		return uint64(len(keys))
	})
	if missing > 0 {
		return fmt.Errorf("result cache lost %d of %d entries", missing, len(keys))
	}
	var specs []server.JobSpec
	for e := 0; len(specs) < 64; e++ {
		specs = append(specs, specsFor(o.plan, o.seed, e)...)
	}
	sr.fp = timed(o.hs, o.rec, o.root, "specfp.fingerprint", "", func() uint64 {
		const reps = 50
		for range reps {
			for _, sp := range specs {
				_ = sp.Fingerprint()
			}
		}
		return reps * uint64(len(specs))
	})
	return nil
}
