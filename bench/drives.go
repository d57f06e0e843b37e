package main

import (
	"fmt"
	"time"

	"repro/internal/branch"
	"repro/internal/cache"
	"repro/internal/codecache"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/queue"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// rec is one recorded correct-path instruction. Recordings are kept as
// slices of this pointer-free struct so that a live recording of
// hundreds of thousands of records costs the garbage collector nothing
// to scan, which would otherwise be billed to whichever drive runs
// next.
type rec struct {
	pc, addr, next uint64
	flags          uint8
}

const (
	fHasAddr uint8 = 1 << iota
	fTaken
	fLoad
	fStore
	fExit
)

func bit(on bool, f uint8) uint8 {
	if on {
		return f
	}
	return 0
}

// ctl is one recorded control instruction with its decoded form.
type ctl struct {
	pc, next uint64
	in       isa.Inst
	taken    bool
}

// recording is the correct-path stream of one input, as the core
// consumes it in a run of the same instruction budget.
type recording struct {
	prog *isa.Program
	recs []rec
	ctls []ctl
}

// recordStream drains a fresh functional frontend for n records.
func recordStream(inst *workloads.Instance, n uint64) (*recording, error) {
	fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop), frontend.WithMaxInstructions(n))
	lane := make([]trace.DynInst, 256)
	r := &recording{prog: inst.Prog, recs: make([]rec, 0, n)}
	for {
		k := fe.NextBatch(lane)
		if k == 0 {
			break
		}
		for i := range lane[:k] {
			d := &lane[i]
			m := codecache.MetaOf(&d.In)
			f := bit(d.HasAddr, fHasAddr) | bit(d.Taken, fTaken) | bit(m.IsLoad(), fLoad) |
				bit(m.IsStore(), fStore) | bit(d.Exit, fExit)
			r.recs = append(r.recs, rec{pc: d.PC, addr: d.MemAddr, next: d.NextPC, flags: f})
			if m.IsControl() {
				r.ctls = append(r.ctls, ctl{pc: d.PC, next: d.NextPC, in: d.In, taken: d.Taken})
			}
		}
	}
	return r, fe.Err()
}

// replay is a queue producer over a recording.
type replay struct {
	r *recording
	i int
}

func (p *replay) fill(di *trace.DynInst) {
	c := &p.r.recs[p.i]
	in, _ := p.r.prog.At(c.pc)
	*di = trace.DynInst{Seq: uint64(p.i), PC: c.pc, In: in, MemAddr: c.addr, HasAddr: c.flags&fHasAddr != 0,
		Taken: c.flags&fTaken != 0, NextPC: c.next, Exit: c.flags&fExit != 0}
	p.i++
}

func (p *replay) Next() (trace.DynInst, bool) {
	var di trace.DynInst
	if p.i >= len(p.r.recs) {
		return di, false
	}
	p.fill(&di)
	return di, true
}

func (p *replay) NextBatch(dst []trace.DynInst) int {
	n := 0
	for n < len(dst) && p.i < len(p.r.recs) {
		p.fill(&dst[n])
		n++
	}
	return n
}

// drive is one standalone layer measurement: ops operations in ns
// nanoseconds.
type drive struct {
	ns  int64
	ops uint64
}

func (d *drive) add(o drive) { d.ns += o.ns; d.ops += o.ops }

func (d drive) perOp() float64 { return ratio(float64(d.ns), float64(d.ops)) }

// drives holds the standalone layer measurements, summed over inputs.
type drives struct {
	functional, wpemul, queue, cache, branch, codecache drive
}

// timed runs f as a single span and returns its duration in
// reference-host time.
func timed(hs *hostSpeed, rec *recorder, parent int, name, id string, f func() uint64) drive {
	start := time.Now()
	ops := f()
	d := time.Since(start)
	rec.add(span{name: name, id: id, tid: 2, parent: parent, start: rec.since(start), dur: d, count: int64(ops)})
	return drive{ns: int64(scaled(d, hs.scale())), ops: ops}
}

// driveLayers measures each layer alone on one input: the functional
// frontend without and with wrong-path emulation, then the queue, the
// cache hierarchy, the branch predictor and the code cache replaying
// the input's recorded stream. It returns the branch replay's
// mispredict count for the caller to cross-check against the core.
func driveLayers(w workloads.Workload, n uint64, hs *hostSpeed, rec *recorder, parent int, out *drives) (mispredicts uint64, err error) {
	cfg := core.DefaultConfig()
	id := "drive/" + w.Name
	for _, wpemul := range []bool{false, true} {
		inst, err := w.Build()
		if err != nil {
			return 0, fmt.Errorf("building %s: %w", w.Name, err)
		}
		opts := []frontend.Option{frontend.WithMaxInstructions(n)}
		name, dst := "functional", &out.functional
		if wpemul {
			opts = append(opts, frontend.WithWrongPathEmulation(cfg.BranchPred, cfg.WPMaxLen()))
			name, dst = "functional_wpemul", &out.wpemul
		}
		fe := frontend.New(functional.New(inst.Prog, inst.Mem, inst.StackTop), opts...)
		lane := make([]trace.DynInst, core.DefaultBatch)
		dst.add(timed(hs, rec, parent, name, id, func() uint64 {
			var total uint64
			for k := fe.NextBatch(lane); k > 0; k = fe.NextBatch(lane) {
				total += uint64(k)
			}
			return total
		}))
		if err := fe.Err(); err != nil {
			return 0, fmt.Errorf("driving the frontend on %s: %w", w.Name, err)
		}
	}

	inst, err := w.Build()
	if err != nil {
		return 0, fmt.Errorf("building %s: %w", w.Name, err)
	}
	r, err := recordStream(inst, n)
	if err != nil {
		return 0, fmt.Errorf("recording %s: %w", w.Name, err)
	}

	q, err := queue.New(&replay{r: r}, 2*cfg.ROBSize+cfg.FrontendBuffer+64)
	if err != nil {
		return 0, err
	}
	lane := make([]trace.DynInst, core.DefaultBatch)
	out.queue.add(timed(hs, rec, parent, "queue", id, func() uint64 {
		var total uint64
		for k := q.PopBatch(lane); k > 0; k = q.PopBatch(lane) {
			total += uint64(k)
		}
		return total
	}))

	h := cache.NewHierarchy(cfg.Hierarchy)
	lineMask := uint64(cfg.Hierarchy.L1I.LineBytes - 1)
	out.cache.add(timed(hs, rec, parent, "cache", id, func() uint64 {
		var accesses uint64
		cur := ^uint64(0)
		for i := range r.recs {
			c := &r.recs[i]
			at := uint64(i)
			if line := c.pc &^ lineMask; line != cur {
				h.AccessI(c.pc, at, false)
				cur = line
				accesses++
			}
			if c.flags&fHasAddr == 0 {
				continue
			}
			if c.flags&fLoad != 0 {
				h.Load(c.addr, at, false)
				accesses++
			} else if c.flags&fStore != 0 {
				h.Store(c.addr, at, false)
				accesses++
			}
		}
		return accesses
	}))

	u := branch.New(cfg.BranchPred)
	out.branch.add(timed(hs, rec, parent, "branch", id, func() uint64 {
		for i := range r.ctls {
			c := &r.ctls[i]
			if u.PredictAndUpdate(c.pc, c.in, c.taken, c.next).Mispredicted {
				mispredicts++
			}
		}
		return uint64(len(r.ctls))
	}))

	cc := codecache.New()
	cc.Predecode(r.prog)
	out.codecache.add(timed(hs, rec, parent, "codecache", id, func() uint64 {
		for i := range r.recs {
			pc := r.recs[i].pc
			if _, _, ok := cc.LookupMeta(pc); !ok {
				in, _ := r.prog.At(pc)
				cc.InsertGet(pc, &in)
			}
		}
		return uint64(len(r.recs))
	}))
	return mispredicts, nil
}
