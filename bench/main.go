// Command bench is the simulator's benchmark: simulation speed per
// wrong-path technique, accuracy against wrong-path emulation, and
// wpserved latency, on four workloads, with a traced per-layer
// breakdown. See README.md.
//
//	bench -workload gap_irregular -seed 1 [-seconds 25] [-trace 1] [-out rec.json] [-trace-out spans.json]
//	bench -compare A.json B.json
//	bench -update-golden [-workload name]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/wrongpath"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options selects one measured run.
type options struct {
	plan     plan
	seed     uint64
	seconds  int
	traced   bool
	workDir  string
	traceOut string
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run (gap_irregular, specint_mix, specfp_regular, serve_mix)")
	seed := fl.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fl.Int("seconds", 25, "how long the run measures")
	traceFlag := fl.Int("trace", 0, "1: run the traced pass and report the per-layer metrics")
	out := fl.String("out", "", "write the full record (quartiles, samples, host) to this file")
	traceOut := fl.String("trace-out", "", "run the traced pass and write its spans as Chrome-trace JSON to this file")
	cmp := fl.Bool("compare", false, "compare two records given as arguments")
	update := fl.Bool("update-golden", false, "rewrite the golden digests of -workload (all workloads when empty)")
	goldenDir := fl.String("golden-dir", filepath.Join("bench", "golden"), "where -update-golden writes")
	workDir := fl.String("work-dir", ".bench_build", "scratch directory for the server's state")
	if err := fl.Parse(args); err != nil {
		return 2
	}

	if *cmp {
		return runCompare(fl.Args(), stdout, stderr)
	}
	if *update {
		for _, p := range plans {
			if *workload != "" && p.name != *workload {
				continue
			}
			if err := updateGolden(p, *goldenDir); err != nil {
				fmt.Fprintf(stderr, "bench: updating golden digests of %s: %v\n", p.name, err)
				return 1
			}
		}
		return 0
	}
	p, ok := findPlan(*workload)
	if !ok || fl.NArg() != 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds < 1 {
		fmt.Fprintf(stderr, "bench: usage: -workload <name> -seed <n> [-seconds s] [-trace 0|1]; unknown workload %q\n", *workload)
		return 2
	}
	o := options{plan: p, seed: *seed, seconds: *seconds, traced: *traceFlag == 1 || *traceOut != "",
		workDir: *workDir, traceOut: *traceOut}
	rec, err := measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	decls := endToEnd()
	if o.traced {
		decls = perLayer()
	}
	for _, d := range decls {
		st := rec.Metrics[d.name]
		st.Unit, st.Better, st.Bound = d.unit, d.better, d.bound
		rec.Metrics[d.name] = st
	}
	if *out != "" {
		if err := writeRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "bench: writing record: %v\n", err)
			return 1
		}
	}
	if err := report(stdout, rec, decls); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !rec.Correct {
		return 1
	}
	return 0
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: usage: -compare A.json B.json")
		return 2
	}
	a, err := readRecord(args[0])
	var b *record
	if err == nil {
		b, err = readRecord(args[1])
	}
	var regressed bool
	if err == nil {
		regressed, err = compare(stdout, a, b)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// checker counts attempted operations and failures: cells, jobs, and
// every correctness check that compares one result with another. Only
// the run's main goroutine uses it.
type checker struct {
	attempted int
	failed    int
	failures  []string
}

// maxFailures bounds how many failure messages a record keeps.
const maxFailures = 20

func (c *checker) attempt(err error) {
	c.attempted++
	if err != nil {
		c.fail(err.Error())
	}
}

func (c *checker) fail(msg string) {
	c.failed++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, msg)
	}
}

// measure runs one workload: a warm-up cell, the sim phase, and the
// serve phase, untraced or traced.
func measure(o options) (*record, error) {
	p := o.plan
	ws, err := p.sim.workloadsFor(o.seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	var rec *recorder
	root := -1
	if o.traced {
		rec = newRecorder()
		root = rec.add(span{name: "workload " + p.name, parent: -1})
	}
	chk := &checker{}
	if _, err := runCell(ws[0], wrongpath.Conv, p.sim.maxInsts, cellOpts{}); err != nil {
		return nil, fmt.Errorf("warm-up cell: %w", err)
	}

	start := time.Now()
	hs := newHostSpeed()
	var sr simRun
	if o.traced {
		sr.reps = [][]cell{runRep(ws, 0, p.sim.maxInsts, cellOpts{hs: hs, measureAlloc: true}, chk)}
		sr.traced = runRep(ws, 0, p.sim.maxInsts, cellOpts{hs: hs, rec: rec, parent: root}, chk)
	} else {
		budget := time.Duration(float64(o.seconds) * p.simShare * float64(time.Second))
		var last time.Duration
		for r := 0; r < p.sim.minReps || time.Since(start)+last <= budget; r++ {
			t := time.Now()
			sr.reps = append(sr.reps, runRep(ws, r, p.sim.maxInsts, cellOpts{hs: hs}, chk))
			last = time.Since(t)
		}
	}
	ref := digests(sr.reps[0])
	for r, cells := range sr.reps[1:] {
		checkDigests(chk, fmt.Sprintf("rep %d", r+1), ref, cells)
	}
	checkDigests(chk, "traced run", ref, sr.traced)
	gold, err := loadGolden(p, o.seed)
	if err != nil {
		return nil, err
	}
	if gold != nil {
		checkDigests(chk, "golden", gold, sr.reps[0])
	}

	var dr drives
	if o.traced {
		coreMis := map[string]uint64{}
		for _, c := range sr.reps[0] {
			if c.tech == wrongpath.NoWP {
				coreMis[c.bench] = c.res.Core.Mispredicts
			}
		}
		for _, w := range ws {
			mis, err := driveLayers(w, p.sim.maxInsts, hs, rec, root, &dr)
			if err == nil && mis != coreMis[w.Name] {
				err = fmt.Errorf("branch replay of %s mispredicts %d times, the nowp core %d", w.Name, mis, coreMis[w.Name])
			}
			chk.attempt(err)
		}
	}

	srun, err := runServe(serveOpts{plan: p.serve, seed: o.seed, workDir: o.workDir, hs: hs, rec: rec, root: root}, chk)
	if err != nil {
		return nil, err
	}

	r := &record{Workload: p.name, Seed: o.seed, Seconds: o.seconds, Traced: o.traced, Host: hostInfo(), Digests: ref}
	if o.traced {
		r.Metrics = perLayerMetrics(&sr, &dr, srun, chk)
		rec.finish(root, time.Now())
		if o.traceOut != "" {
			if err := rec.writeChrome(o.traceOut); err != nil {
				return nil, fmt.Errorf("writing trace: %w", err)
			}
		}
	} else {
		r.Metrics = endToEndMetrics(p, &sr, srun)
	}
	r.HostScale = summarize(hs.scales)
	r.HostScale.Samples = nil
	r.Attempted, r.Failed, r.Failures = chk.attempted, min(chk.failed, chk.attempted), chk.failures
	r.Correct = r.Failed == 0
	r.FailFrac = ratio(float64(r.Failed), float64(r.Attempted))
	return r, nil
}

// peakRSS is the process's maximum resident set size in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func endToEndMetrics(p plan, sr *simRun, srun *serveRun) map[string]stat {
	m := map[string]stat{}
	perRep := map[wrongpath.Kind][]float64{}
	builds := map[string][]float64{}
	for _, cells := range sr.reps {
		for k, v := range rates(cells) {
			perRep[k] = append(perRep[k], v)
		}
		for _, c := range cells {
			builds[c.bench] = append(builds[c.bench], c.build.Seconds()*c.scale)
		}
	}
	for _, k := range techniques {
		m[k.String()+"_minst_s"] = summarize(perRep[k])
	}
	// Set-up is building every input once: the median of each input's
	// builds, summed, with the quartiles summed the same way.
	var setup stat
	for _, b := range p.sim.benches {
		s := summarize(builds[b])
		setup.Value += s.Value
		setup.Q1 += s.Q1
		setup.Q3 += s.Q3
		setup.N += s.N
	}
	m["setup_s"] = setup
	m["peak_rss_mb"] = single(peakRSS())
	m["nowp_err_pct"] = single(errPct(sr.reps[0], wrongpath.NoWP))
	m["conv_err_pct"] = single(errPct(sr.reps[0], wrongpath.Conv))
	m["jobs_s"] = summarize(srun.cycleJobsS)
	m["hit_p50_ms"] = percentile(srun.hit, 0.50)
	m["hit_p90_ms"] = percentile(srun.hit, 0.90)
	m["miss_p50_ms"] = percentile(srun.miss, 0.50)
	m["miss_p90_ms"] = percentile(srun.miss, 0.90)
	m["coalesced_p50_ms"] = percentile(srun.coalesced, 0.50)
	return m
}

// techSums adds up the counters of one technique's cells.
type techSums struct {
	insts, cycles, alloc    float64
	sessionNS, feNS, wpSelf float64
	wpCalls                 float64
	mispredicts, wpFetched  float64
	policy                  wrongpath.Stats
	l1dMiss, llcMiss        float64
	l1dAcc, l1dWrongAcc     float64
	emulated                float64
}

func sumCells(cells []cell) map[wrongpath.Kind]*techSums {
	out := map[wrongpath.Kind]*techSums{}
	for _, k := range techniques {
		out[k] = &techSums{}
	}
	for _, c := range cells {
		t := out[c.tech]
		r := c.res
		t.insts += float64(r.Core.Instructions)
		t.cycles += float64(r.Core.Cycles)
		t.alloc += float64(c.alloc)
		t.sessionNS += float64(c.wall) * c.scale
		if l := c.layers; l != nil {
			t.feNS += float64(l.feNS) * c.scale
			t.wpSelf += float64(l.wpSelfNS()) * c.scale
			t.wpCalls += float64(l.wpCalls)
		}
		t.mispredicts += float64(r.Core.Mispredicts)
		t.wpFetched += float64(r.Core.WPFetched)
		p := &t.policy
		p.WPGenerated += r.Policy.WPGenerated
		p.ConvChecked += r.Policy.ConvChecked
		p.ConvDetected += r.Policy.ConvDetected
		p.ConvDistSum += r.Policy.ConvDistSum
		p.WPMemOps += r.Policy.WPMemOps
		p.WPAddrRecovered += r.Policy.WPAddrRecovered
		t.l1dMiss += float64(r.L1D.Total().Misses)
		t.llcMiss += float64(r.LLC.Total().Misses)
		t.l1dAcc += float64(r.L1D.Total().Accesses)
		t.l1dWrongAcc += float64(r.L1D.Wrong.Accesses)
		t.emulated += float64(r.WPEmulatedInsts)
	}
	return out
}

func perLayerMetrics(sr *simRun, dr *drives, srun *serveRun, chk *checker) map[string]stat {
	m := map[string]stat{}
	set := func(name string, v float64) { m[name] = single(v) }
	for _, c := range sr.traced {
		if l := c.layers; float64(c.wall)-float64(l.feNS)-float64(l.wpSelfNS()) < 0 || l.wpSelfNS() < 0 {
			chk.fail(fmt.Sprintf("traced cell %s: layer times exceed the session's", cellKey(c.bench, c.tech)))
		}
	}
	traced := sumCells(sr.traced)
	counts := sumCells(sr.reps[0])
	var untracedNS, tracedNS float64
	for _, k := range techniques {
		t, n := traced[k], k.String()
		coreNS := t.sessionNS - t.feNS - t.wpSelf
		set("frontend.share."+n, ratio(t.feNS, t.sessionNS))
		set("frontend.ns_per_inst."+n, ratio(t.feNS, t.insts))
		set("core.share."+n, ratio(coreNS, t.sessionNS))
		set("core.ns_per_inst."+n, ratio(coreNS, t.insts))
		c := counts[k]
		set("core.ipc."+n, ratio(c.insts, c.cycles))
		set("sim.alloc_mb_per_minst."+n, ratio(c.alloc, c.insts)) // bytes per instruction = MB per Minst
		tracedNS += t.sessionNS
		untracedNS += c.sessionNS
	}
	for _, k := range wpTechniques {
		t, c, n := traced[k], counts[k], k.String()
		set("wrongpath.share."+n, ratio(t.wpSelf, t.sessionNS))
		set("wrongpath.ns_per_call."+n, ratio(t.wpSelf, t.wpCalls))
		set("wrongpath.generated_per_kinst."+n, 1000*ratio(float64(c.policy.WPGenerated), c.insts))
		set("core.wp_fetched_per_generated."+n, ratio(c.wpFetched, float64(c.policy.WPGenerated)))
	}
	set("trace.overhead_frac", ratio(tracedNS, untracedNS)-1)
	wp := counts[wrongpath.WPEmul]
	set("frontend.wpemul_emulated_per_fetched", ratio(wp.emulated, wp.wpFetched))
	conv := &counts[wrongpath.Conv].policy
	set("wrongpath.conv_frac", conv.ConvFrac())
	set("wrongpath.conv_dist", conv.ConvDist())
	set("wrongpath.addr_recover_frac", conv.AddrRecoverFrac())
	nowp := counts[wrongpath.NoWP]
	set("branch.mpki", 1000*ratio(nowp.mispredicts, nowp.insts))
	for _, k := range []wrongpath.Kind{wrongpath.NoWP, wrongpath.WPEmul} {
		c := counts[k]
		set("cache.l1d_mpki."+k.String(), 1000*ratio(c.l1dMiss, c.insts))
		set("cache.llc_mpki."+k.String(), 1000*ratio(c.llcMiss, c.insts))
	}
	for _, k := range []wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul} {
		c := counts[k]
		set("cache.wp_access_frac."+k.String(), ratio(c.l1dWrongAcc, c.l1dAcc))
	}
	set("functional.ns_per_inst", dr.functional.perOp())
	set("functional.wpemul_ns_per_inst", dr.wpemul.perOp())
	set("queue.ns_per_record", dr.queue.perOp())
	set("cache.ns_per_access", dr.cache.perOp())
	set("branch.ns_per_branch", dr.branch.perOp())
	set("codecache.ns_per_lookup", dr.codecache.perOp())

	for _, d := range []string{"hit", "miss", "coalesced"} {
		m["server.submit_ms_p50."+d] = percentile(srun.submit[d], 0.5)
	}
	m["server.hit_p99_ms"] = percentile(srun.hit, 0.99)
	m["server.result_ms_p50"] = percentile(srun.result, 0.5)
	m["server.miss_sim_ms_p50"] = percentile(srun.missSim, 0.5)
	m["server.miss_overhead_ms_p50"] = percentile(srun.missOverhead, 0.5)
	jobs, misses := float64(srun.jobs), float64(len(srun.miss))
	set("server.polls_per_miss", ratio(float64(srun.polls), misses))
	set("server.sim_runs_per_job", ratio(float64(srun.simRuns), jobs))
	set("resultcache.hit_frac", ratio(float64(len(srun.hit)), jobs))
	set("server.coalesced_frac", ratio(float64(len(srun.coalesced)), jobs))
	set("resultcache.get_us", srun.rcGet.perOp()/1e3)
	set("resultcache.put_us", srun.rcPut.perOp()/1e3)
	set("specfp.fingerprint_us", srun.fp.perOp()/1e3)
	set("checkpoint.mb_per_miss", ratio(float64(srun.ckptBytes)/1e6, float64(srun.ckptMisses)))
	set("server.state_mb_per_job", ratio(float64(srun.stateBytes)/1e6, float64(srun.persisted)))
	return m
}
