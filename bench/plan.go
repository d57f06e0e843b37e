package main

import (
	"fmt"
	"strings"

	"repro/internal/workloads"
	"repro/internal/workloads/catalog"
	"repro/internal/wrongpath"
)

// inputSet is a list of benchmarks of one suite at one input shape.
type inputSet struct {
	suite   string
	benches []string
	params  catalog.Params // Seed is filled from the run seed
}

// simPlan is the direct-simulation phase: every (input, technique)
// cell runs through sim.Run on a freshly built instance.
type simPlan struct {
	inputSet
	maxInsts uint64
	minReps  int
}

// servePlan is the wpserved phase: a closed loop of two clients over
// fresh specs drawn from the input set. Its work is fixed, not timed:
// the server keeps every job it served, so a phase that ran for a fixed
// time would hold more jobs, and more memory, on a faster host.
type servePlan struct {
	inputSet
	maxInsts    uint64
	epochs      int // a multiple of len(benches): whole cycles only
	burstRounds int // lock-step rounds of repeats (cache hits) per epoch
}

// plan is one benchmark workload. Every workload runs both phases so
// that every declared metric is measured on every workload; the
// workloads differ in their inputs and in how --seconds is split.
type plan struct {
	name     string
	why      string
	sim      simPlan
	serve    servePlan
	simShare float64 // share of --seconds given to the sim phase
}

var gapBig = catalog.Params{N: 65536, Degree: 8}
var gapSmall = catalog.Params{N: 4096, Degree: 8}

// plans lists the workloads. The reasons each was chosen are in the
// why fields and in README.md.
var plans = []plan{
	{
		name: "gap_irregular",
		why:  "GAP bfs/cc/sssp on a 64Ki-vertex graph: frequent mispredicts that reconverge and an 8 MB neighbour array far beyond the LLC, so wrong-path generation dominates",
		sim: simPlan{
			inputSet: inputSet{"gap", []string{"bfs", "cc", "sssp"}, gapBig},
			maxInsts: 300_000, minReps: 3,
		},
		serve: servePlan{
			inputSet: inputSet{"gap", []string{"bfs", "cc", "sssp"}, gapSmall},
			maxInsts: 50_000, epochs: 24, burstRounds: 40,
		},
		simShare: 0.75,
	},
	{
		name: "specint_mix",
		why:  "SPEC-INT proxies: treewalk and sadscan never reconverge, hashtab does, blocksort rarely mispredicts; working sets fit the modelled caches",
		sim: simPlan{
			inputSet: inputSet{"specint", []string{"treewalk", "sadscan", "hashtab", "blocksort"}, catalog.Params{Scale: 1}},
			maxInsts: 300_000, minReps: 3,
		},
		serve: servePlan{
			inputSet: inputSet{"specint", []string{"treewalk", "sadscan", "hashtab", "blocksort"}, catalog.Params{Scale: 1}},
			maxInsts: 30_000, epochs: 24, burstRounds: 40,
		},
		simShare: 0.75,
	},
	{
		name: "specfp_regular",
		why:  "SPEC-FP proxies with predictable loops (MPKI under 0.3): wrong-path layers do almost no work, so interpreter, queue and core dominate",
		sim: simPlan{
			inputSet: inputSet{"specfp", []string{"streamtriad", "nbody", "raysphere", "fdtd"}, catalog.Params{Scale: 1}},
			maxInsts: 2_000_000, minReps: 3,
		},
		serve: servePlan{
			inputSet: inputSet{"specfp", []string{"streamtriad", "nbody", "raysphere", "fdtd"}, catalog.Params{Scale: 1}},
			maxInsts: 100_000, epochs: 24, burstRounds: 40,
		},
		simShare: 0.75,
	},
	{
		name: "serve_mix",
		why:  "wpserved under two closed-loop clients: misses that simulate, checkpoint and persist, coalesced duplicates, and bursts of cache hits",
		sim: simPlan{
			inputSet: inputSet{"gap", []string{"bfs", "cc", "sssp", "pr"}, gapSmall},
			maxInsts: 200_000, minReps: 3,
		},
		serve: servePlan{
			inputSet: inputSet{"gap", []string{"bfs", "cc", "sssp", "pr"}, gapSmall},
			maxInsts: 200_000, epochs: 32, burstRounds: 40,
		},
		simShare: 0.5,
	},
}

func findPlan(name string) (plan, bool) {
	for _, p := range plans {
		if p.name == name {
			return p, true
		}
	}
	return plan{}, false
}

// workloadsFor resolves the input set for one seed.
func (s inputSet) workloadsFor(seed uint64) ([]workloads.Workload, error) {
	p := s.params
	p.Seed = seed
	out := make([]workloads.Workload, len(s.benches))
	for i, b := range s.benches {
		w, err := catalog.Find(s.suite, b, p)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// describe is the plan identity stored beside golden digests: goldens
// apply only to a run of exactly this sim phase.
func (s simPlan) describe() string {
	p := s.params
	return fmt.Sprintf("%s/%s n=%d degree=%d scale=%g max_insts=%d",
		s.suite, strings.Join(s.benches, ","), p.N, p.Degree, p.Scale, s.maxInsts)
}

// techniques is the paper's five wrong-path techniques in report order.
var techniques = wrongpath.Kinds()

// wpTechniques are the techniques that generate wrong paths.
var wpTechniques = techniques[1:]

// metricDecl declares one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDecl struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the metrics a user of the simulator sees. BENCHMARK.json
// declares the same list; the smoke test keeps the two equal.
func endToEnd() []metricDecl {
	var out []metricDecl
	for _, k := range techniques {
		out = append(out, metricDecl{k.String() + "_minst_s", "Minst/s", "higher", 0.20})
	}
	return append(out,
		metricDecl{"setup_s", "s", "lower", 0.25},
		metricDecl{"peak_rss_mb", "MB", "lower", 0.20},
		metricDecl{"nowp_err_pct", "%", "lower", 0.20},
		metricDecl{"conv_err_pct", "%", "lower", 0.20},
		metricDecl{"jobs_s", "jobs/s", "higher", 0.20},
		metricDecl{"hit_p50_ms", "ms", "lower", 0.25},
		metricDecl{"hit_p90_ms", "ms", "lower", 0.25},
		metricDecl{"miss_p50_ms", "ms", "lower", 0.20},
		metricDecl{"miss_p90_ms", "ms", "lower", 0.20},
		metricDecl{"coalesced_p50_ms", "ms", "lower", 0.20},
	)
}

// perLayer lists the traced run's metrics of single layers.
func perLayer() []metricDecl {
	var out []metricDecl
	add := func(name, unit, better string) {
		out = append(out, metricDecl{name: name, unit: unit, better: better})
	}
	for _, k := range techniques {
		t := k.String()
		add("frontend.share."+t, "fraction", "lower")
		add("frontend.ns_per_inst."+t, "ns/inst", "lower")
		add("core.share."+t, "fraction", "lower")
		add("core.ns_per_inst."+t, "ns/inst", "lower")
		add("core.ipc."+t, "inst/cycle", "higher")
		add("sim.alloc_mb_per_minst."+t, "MB/Minst", "lower")
	}
	for _, k := range wpTechniques {
		w := k.String()
		add("wrongpath.share."+w, "fraction", "lower")
		add("wrongpath.ns_per_call."+w, "ns/call", "lower")
		add("wrongpath.generated_per_kinst."+w, "inst/kinst", "lower")
		add("core.wp_fetched_per_generated."+w, "fraction", "higher")
	}
	add("trace.overhead_frac", "fraction", "lower")
	add("frontend.wpemul_emulated_per_fetched", "ratio", "lower")
	add("wrongpath.conv_frac", "fraction", "higher")
	add("wrongpath.conv_dist", "inst", "lower")
	add("wrongpath.addr_recover_frac", "fraction", "higher")
	add("branch.mpki", "miss/kinst", "lower")
	for _, t := range []string{"nowp", "wpemul"} {
		add("cache.l1d_mpki."+t, "miss/kinst", "lower")
		add("cache.llc_mpki."+t, "miss/kinst", "lower")
	}
	add("cache.wp_access_frac.conv", "fraction", "lower")
	add("cache.wp_access_frac.wpemul", "fraction", "lower")
	add("functional.ns_per_inst", "ns/inst", "lower")
	add("functional.wpemul_ns_per_inst", "ns/inst", "lower")
	add("queue.ns_per_record", "ns/record", "lower")
	add("cache.ns_per_access", "ns/access", "lower")
	add("branch.ns_per_branch", "ns/branch", "lower")
	add("codecache.ns_per_lookup", "ns/lookup", "lower")
	for _, d := range []string{"hit", "miss", "coalesced"} {
		add("server.submit_ms_p50."+d, "ms", "lower")
	}
	add("server.hit_p99_ms", "ms", "lower")
	add("server.result_ms_p50", "ms", "lower")
	add("server.polls_per_miss", "polls/miss", "lower")
	add("server.miss_sim_ms_p50", "ms", "lower")
	add("server.miss_overhead_ms_p50", "ms", "lower")
	add("server.sim_runs_per_job", "runs/job", "lower")
	add("resultcache.hit_frac", "fraction", "higher")
	add("server.coalesced_frac", "fraction", "higher")
	add("resultcache.get_us", "us", "lower")
	add("resultcache.put_us", "us", "lower")
	add("specfp.fingerprint_us", "us", "lower")
	add("checkpoint.mb_per_miss", "MB", "lower")
	add("server.state_mb_per_job", "MB", "lower")
	return out
}
