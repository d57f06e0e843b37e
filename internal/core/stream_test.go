package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/wrongpath"
)

// handoffProgram is a short mispredict-heavy loop: an LCG-driven branch
// the predictor cannot learn, so most lanes carry wrong paths.
const handoffProgram = `
    li   t0, 6000
    li   t1, 12345
    li   t2, 1103515245
loop:
    mul  t1, t1, t2
    addi t1, t1, 12345
    srli t3, t1, 16
    andi t3, t3, 1
    beqz t3, skip
    addi t4, t4, 1
skip:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 0
    li a0, 0
    ecall
`

// slowProducer delays every batch of its frontend, and panics at the
// batch panicAt (0: never).
type slowProducer struct {
	*frontend.Frontend
	delay   time.Duration
	batches int
	panicAt int
}

func (p *slowProducer) NextBatch(dst []trace.DynInst) int {
	if p.batches++; p.batches == p.panicAt {
		panic("injected source fault")
	}
	spinFor(p.delay)
	return p.Frontend.NextBatch(dst)
}

// slowPolicy delays every Begin, and panics at the Begin panicAt (0:
// never).
type slowPolicy struct {
	wrongpath.Policy
	delay   time.Duration
	calls   int
	panicAt int
}

func (p *slowPolicy) Begin(ctx *wrongpath.Context, br *trace.DynInst, target uint64) []trace.DynInst {
	if p.calls++; p.calls == p.panicAt {
		panic("injected policy fault")
	}
	spinFor(p.delay)
	return p.Policy.Begin(ctx, br, target)
}

// spinFor busy-waits for d, so a stage is slow without leaving its
// thread.
func spinFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// handoffRun is one run of handoffProgram under kind at the given lane
// size: the source and the policy delayed or failing as given, and hook
// (with holdAt) installed as the lane hook.
type handoffRun struct {
	kind             wrongpath.Kind
	lane             int
	src              slowProducer
	policy           slowPolicy
	hook             func(c *Core) bool
	holdAt           func(insts uint64) bool
	timingLaneDelay  time.Duration
	warmup, maxInsts uint64
}

func (r handoffRun) run(t *testing.T) (*Core, Stats) {
	t.Helper()
	prog, err := asm.Assemble(handoffProgram)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Batch = r.lane
	var opts []frontend.Option
	if r.kind == wrongpath.WPEmul {
		opts = append(opts, frontend.WithWrongPathEmulation(cfg.BranchPred, cfg.WPMaxLen()))
	}
	r.src.Frontend = frontend.New(functional.New(prog, mem.New(), 0x7000_0000), opts...)
	q, err := queue.New(&r.src, 2*cfg.ROBSize+cfg.FrontendBuffer+64)
	if err != nil {
		t.Fatal(err)
	}
	r.policy.Policy = wrongpath.New(r.kind)
	c, err := New(cfg, q, &r.policy)
	if err != nil {
		t.Fatal(err)
	}
	c.SetWrongPaths(r.src.WrongPaths())
	c.Predecode(prog)
	c.SetLaneHook(func() bool {
		spinFor(r.timingLaneDelay)
		return r.hook == nil || r.hook(c)
	}, r.holdAt)
	st := c.RunWarmup(r.warmup, r.maxInsts)
	if err := r.src.Err(); err != nil {
		t.Fatal(err)
	}
	return c, st
}

// goroutinesBackTo waits until the goroutine count is back to base.
func goroutinesBackTo(t *testing.T, base int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 5_000 {
			t.Fatalf("%d goroutines after the run, %d before it", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandoffSpeeds: a stream stage much faster than the timing stage
// (the timing stage's lane hook dawdles) and one much slower (its
// source and policy dawdle) hand over the same lanes: every statistic
// equals an undisturbed run's, for reconstruction and for emulation, at
// lane sizes 1 and 64.
func TestHandoffSpeeds(t *testing.T) {
	for _, kind := range []wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul} {
		for _, lane := range []int{1, 64} {
			base := handoffRun{kind: kind, lane: lane, warmup: 2_000, maxInsts: 12_000}
			_, want := base.run(t)
			fast := base
			fast.timingLaneDelay = 20 * time.Microsecond
			slow := base
			slow.src.delay, slow.policy.delay = 20*time.Microsecond, 20*time.Microsecond
			for name, r := range map[string]handoffRun{"fast stream": fast, "slow stream": slow} {
				if _, got := r.run(t); got != want {
					t.Errorf("%v lane %d, %s: %+v, want %+v", kind, lane, name, got, want)
				}
			}
		}
	}
}

// TestHandoffStop: a lane hook that stops the run mid-way ends both
// stages at that lane: the timing stage retires exactly the lanes up to
// it, and the stream stage's goroutine is gone when the run returns.
func TestHandoffStop(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, lane := range []int{1, 64} {
		lanes := 0
		r := handoffRun{kind: wrongpath.Conv, lane: lane, hook: func(*Core) bool {
			lanes++
			return lanes < 100
		}}
		_, st := r.run(t)
		if st.Instructions != uint64(100*lane) {
			t.Errorf("lane %d: stopped after %d instructions, want %d", lane, st.Instructions, 100*lane)
		}
		goroutinesBackTo(t, base)
	}
}

// TestHandoffHoldEveryLane: with a hold after every instruction (lane
// size 1, as with a snapshot at every instruction), the lane hook
// always runs with the stream stage exactly one lane ahead — the lane
// being finished — and the run still equals one without holds.
func TestHandoffHoldEveryLane(t *testing.T) {
	for _, kind := range []wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul} {
		r := handoffRun{kind: kind, lane: 1, maxInsts: 5_000}
		_, want := r.run(t)
		r.holdAt = func(uint64) bool { return true }
		bad := 0
		r.hook = func(c *Core) bool {
			if c.pipe.pub.progress.Load()>>1 != c.pipe.done.progress.Load()+1 {
				bad++
			}
			return true
		}
		if _, got := r.run(t); got != want || bad != 0 {
			t.Errorf("%v: %d hooks ran with the stream stage ahead; stats %+v, want %+v", kind, bad, got, want)
		}
	}
}

// TestHandoffPanics: a panic in the source or in the policy, both on the
// stream stage, comes back on the caller's goroutine as an
// ErrWorkerPanic fault naming the stream stage and the panic, and the
// stream stage's goroutine is gone.
func TestHandoffPanics(t *testing.T) {
	base := runtime.NumGoroutine()
	source := handoffRun{kind: wrongpath.Conv, lane: 64}
	source.src.panicAt = 20
	policy := handoffRun{kind: wrongpath.Conv, lane: 64}
	policy.policy.panicAt = 50
	for name, r := range map[string]handoffRun{"injected source fault": source, "injected policy fault": policy} {
		func() {
			defer func() {
				rec := recover()
				f, ok := rec.(*simerr.Fault)
				if !ok || !errors.Is(f, simerr.ErrWorkerPanic) || f.Op != "stream stage" {
					t.Errorf("%s: recovered %v, want a stream-stage ErrWorkerPanic", name, rec)
				} else if msg := f.Error(); !strings.Contains(msg, name) {
					t.Errorf("%s: fault %q does not name the panic", name, msg)
				}
			}()
			r.run(t)
		}()
		goroutinesBackTo(t, base)
	}
}

// cacheAccesses sums the hierarchy's access counters: every cache
// level's and TLB's, and the memory accesses.
func cacheAccesses(c *Core) uint64 {
	h := c.Hierarchy()
	n := h.MemAccesses
	for _, s := range []cache.LevelStats{h.L1I().Stats, h.L1D().Stats, h.L2().Stats, h.LLC().Stats} {
		n += s.Total().Accesses
	}
	for _, tlb := range []*cache.TLB{h.ITLB(), h.DTLB()} {
		if tlb != nil {
			n += tlb.Stats.Total().Accesses
		}
	}
	return n
}

// TestHandoffWarmupPastProgramEnd: a warmup longer than the program
// ends the run inside warmup: nothing is measured, no wrong path is
// asked for, and the cache statistics are reset, for reconstruction and
// for emulation at lane sizes 1 and 64.
func TestHandoffWarmupPastProgramEnd(t *testing.T) {
	for _, kind := range []wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul} {
		for _, lane := range []int{1, 64} {
			hooks := 0
			r := handoffRun{kind: kind, lane: lane, warmup: 1_000_000, hook: func(*Core) bool {
				hooks++
				return true
			}}
			c, st := r.run(t)
			if st != (Stats{}) || c.policy.Stats().Mispredicts != 0 || cacheAccesses(c) != 0 {
				t.Errorf("%v lane %d: stats %+v, %d mispredicts presented, %d cache accesses; want all zero",
					kind, lane, st, c.policy.Stats().Mispredicts, cacheAccesses(c))
			}
			if hooks == 0 {
				t.Errorf("%v lane %d: the lane hook never ran in warmup", kind, lane)
			}
		}
	}
}

// TestHandoffWarmupStop: a lane hook that stops the run during warmup
// ends it at that lane: the hook runs once per warmup lane up to the
// stop, nothing is measured, and the cache statistics keep warmup's
// accesses (no reset), at lane sizes 1 and 64.
func TestHandoffWarmupStop(t *testing.T) {
	for _, kind := range []wrongpath.Kind{wrongpath.Conv, wrongpath.WPEmul} {
		for _, lane := range []int{1, 64} {
			hooks := 0
			r := handoffRun{kind: kind, lane: lane, warmup: 20_000, hook: func(*Core) bool {
				hooks++
				return hooks < 10
			}}
			c, st := r.run(t)
			if hooks != 10 || st != (Stats{}) || c.policy.Stats().Mispredicts != 0 || cacheAccesses(c) == 0 {
				t.Errorf("%v lane %d: %d hooks, stats %+v, %d mispredicts presented, %d cache accesses; want 10 hooks, zero stats and mispredicts, and warmup's accesses",
					kind, lane, hooks, st, c.policy.Stats().Mispredicts, cacheAccesses(c))
			}
		}
	}
}
