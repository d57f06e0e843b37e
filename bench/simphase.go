package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workloads"
	"repro/internal/wrongpath"
)

func cellKey(bench string, k wrongpath.Kind) string { return bench + "/" + k.String() }

// cell is one simulation of one input under one technique.
type cell struct {
	bench  string
	tech   wrongpath.Kind
	build  time.Duration
	wall   time.Duration // the simulation alone, never the build
	scale  float64       // raw host time to reference-host time
	res    *sim.Result
	digest string
	alloc  uint64      // bytes allocated during the simulation (when measured)
	layers *layerClock // host time per layer (traced cells only)
}

// cellOpts selects how a cell is measured. The zero value is the
// untraced cell: sim.Run and nothing else.
type cellOpts struct {
	hs           *hostSpeed
	rec          *recorder // non-nil: run through timed wrappers and record spans
	parent       int
	id           string
	measureAlloc bool
}

// runCell builds a fresh instance and simulates it. A run that ends in
// an error is returned as an error: no benchmark input may fault.
func runCell(w workloads.Workload, k wrongpath.Kind, maxInsts uint64, o cellOpts) (cell, error) {
	c := cell{bench: w.Name, tech: k}
	cellStart := time.Now()
	inst, err := w.Build()
	c.build = time.Since(cellStart)
	if err != nil {
		return c, fmt.Errorf("building %s/%s: %w", w.Suite, w.Name, err)
	}
	cfg := sim.Default(k)
	cfg.MaxInsts = maxInsts
	// Collect the previous cell's garbage now, untimed, so that its
	// collection is not billed to whichever cell happens to follow.
	runtime.GC()
	var before runtime.MemStats
	if o.measureAlloc {
		runtime.ReadMemStats(&before)
	}
	var res *sim.Result
	simStart := time.Now()
	if o.rec == nil {
		res, err = sim.Run(cfg, inst)
		c.wall = time.Since(simStart)
	} else {
		res, c.layers, err = runTimed(cfg, inst)
		c.wall = time.Since(simStart)
		recordCell(o, w, k, cellStart, simStart, c)
	}
	if o.measureAlloc {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		c.alloc = after.TotalAlloc - before.TotalAlloc
	}
	c.scale = o.hs.scale()
	if err != nil {
		return c, fmt.Errorf("simulating %s under %v: %w", cellKey(w.Name, k), k, err)
	}
	if res.Err != nil {
		return c, fmt.Errorf("simulating %s under %v: %w", cellKey(w.Name, k), k, res.Err)
	}
	c.res = res
	c.digest = digest(res)
	return c, nil
}

// recordCell adds the cell's spans: cell → build and session → the
// folded frontend and wrong-path calls. The session's self time is the
// core's share.
func recordCell(o cellOpts, w workloads.Workload, k wrongpath.Kind, cellStart, simStart time.Time, c cell) {
	r := o.rec
	ci := r.add(span{name: "cell " + cellKey(w.Name, k), id: o.id, tid: 1, parent: o.parent,
		start: r.since(cellStart), dur: r.since(simStart.Add(c.wall)) - r.since(cellStart)})
	r.add(span{name: "build", id: o.id, tid: 1, parent: ci, start: r.since(cellStart), dur: c.build})
	si := r.add(span{name: "session", id: o.id, tid: 1, parent: ci, start: r.since(simStart), dur: c.wall})
	l := c.layers
	r.add(span{name: "frontend", id: o.id, tid: 1, parent: si, dur: time.Duration(l.feNS), count: l.feCalls, folded: true})
	r.add(span{name: "wrongpath", id: o.id, tid: 1, parent: si, dur: time.Duration(l.wpSelfNS()), count: l.wpCalls, folded: true})
}

// layerClock accumulates host time per layer inside one session. A
// wrong-path policy may pull records from the source while it looks
// ahead; that time is frontend time, so it is subtracted from the
// policy's to keep the layers disjoint.
type layerClock struct {
	feNS, feCalls int64
	wpNS, wpCalls int64
	wpNestedFE    int64
	inWP          bool
}

func (l *layerClock) frontend(d time.Duration) {
	l.feNS += int64(d)
	l.feCalls++
	if l.inWP {
		l.wpNestedFE += int64(d)
	}
}

func (l *layerClock) wpSelfNS() int64 { return l.wpNS - l.wpNestedFE }

// timedSource times every call into the functional frontend.
type timedSource struct {
	sim.Source
	prog *isa.Program
	lc   *layerClock
}

func (s *timedSource) Next() (trace.DynInst, bool) {
	t := time.Now()
	di, ok := s.Source.Next()
	s.lc.frontend(time.Since(t))
	return di, ok
}

func (s *timedSource) NextBatch(dst []trace.DynInst) int {
	t := time.Now()
	n := queue.NextBatchOf(s.Source, dst)
	s.lc.frontend(time.Since(t))
	return n
}

// Program forwards the static program so the session still predecodes
// it into the code cache, as it does for an unwrapped source.
func (s *timedSource) Program() *isa.Program { return s.prog }

// timedPolicy times every wrong-path generation.
type timedPolicy struct {
	wrongpath.Policy
	lc *layerClock
}

func (p *timedPolicy) Begin(ctx *wrongpath.Context, br *trace.DynInst, target uint64) []trace.DynInst {
	p.lc.inWP = true
	t := time.Now()
	wp := p.Policy.Begin(ctx, br, target)
	p.lc.wpNS += int64(time.Since(t))
	p.lc.wpCalls++
	p.lc.inWP = false
	return wp
}

// runTimed is sim.Run with the frontend and the policy wrapped.
func runTimed(cfg sim.Config, inst *workloads.Instance) (*sim.Result, *layerClock, error) {
	lc := &layerClock{}
	k := cfg.WP
	cfg.PolicyFactory = func() wrongpath.Policy { return &timedPolicy{Policy: wrongpath.New(k), lc: lc} }
	src := &timedSource{Source: sim.NewFunctionalSource(cfg, inst), prog: inst.Prog, lc: lc}
	s, err := sim.NewSession(cfg, src)
	if err != nil {
		src.Close()
		return nil, lc, err
	}
	return s.Run(), lc, nil
}

// simRun is the outcome of the sim phase.
type simRun struct {
	benches []string
	reps    [][]cell // reps[r] in execution order; failed cells are absent
	traced  []cell   // the traced rep (trace mode only)
}

// rotated returns the technique order of one rep: cells interleave
// inputs and techniques, and the order rotates on every rep so no
// technique always runs first.
func rotated(rep int) []wrongpath.Kind {
	out := make([]wrongpath.Kind, len(techniques))
	for j := range techniques {
		out[j] = techniques[(j+rep)%len(techniques)]
	}
	return out
}

// runRep simulates every (input, technique) cell once.
func runRep(ws []workloads.Workload, rep int, maxInsts uint64, o cellOpts, chk *checker) []cell {
	var cells []cell
	for _, w := range ws {
		for _, k := range rotated(rep) {
			oc := o
			oc.id = fmt.Sprintf("rep%d/%s", rep, cellKey(w.Name, k))
			c, err := runCell(w, k, maxInsts, oc)
			chk.attempt(err)
			if err == nil {
				cells = append(cells, c)
			}
		}
	}
	return cells
}

// rates returns, per technique, simulated instructions per
// reference-host second of the rep's cells, in millions.
func rates(cells []cell) map[wrongpath.Kind]float64 {
	insts := map[wrongpath.Kind]float64{}
	wall := map[wrongpath.Kind]float64{}
	for _, c := range cells {
		insts[c.tech] += float64(c.res.Core.Instructions)
		wall[c.tech] += c.wall.Seconds() * c.scale
	}
	out := map[wrongpath.Kind]float64{}
	for k := range insts {
		out[k] = ratio(insts[k], wall[k]) / 1e6
	}
	return out
}

// errPct is the paper's accuracy metric for technique k: the mean over
// inputs of |IPC_k − IPC_wpemul| / IPC_wpemul, in percent.
func errPct(cells []cell, k wrongpath.Kind) float64 {
	ipc := map[string]map[wrongpath.Kind]float64{}
	for _, c := range cells {
		if ipc[c.bench] == nil {
			ipc[c.bench] = map[wrongpath.Kind]float64{}
		}
		ipc[c.bench][c.tech] = c.res.IPC()
	}
	var sum float64
	var n int
	for _, m := range ipc {
		ref, ok1 := m[wrongpath.WPEmul]
		v, ok2 := m[k]
		if ok1 && ok2 && ref > 0 {
			sum += math.Abs(v-ref) / ref
			n++
		}
	}
	return 100 * ratio(sum, float64(n))
}

func digests(cells []cell) map[string]string {
	out := map[string]string{}
	for _, c := range cells {
		out[cellKey(c.bench, c.tech)] = c.digest
	}
	return out
}

// checkDigests counts every cell of got whose digest differs from want
// as a failure.
func checkDigests(chk *checker, what string, want map[string]string, got []cell) {
	for _, c := range got {
		key := cellKey(c.bench, c.tech)
		if w, ok := want[key]; !ok || w != c.digest {
			chk.fail(fmt.Sprintf("%s: digest of %s is %s, want %s", what, key, c.digest, w))
		}
	}
}
