package core_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/queue"
	"repro/internal/wrongpath"
)

// testConfig returns a configuration with enormous caches so that
// microarchitectural assertions are not perturbed by capacity misses.
func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Hierarchy = cache.HierarchyConfig{
		L1I:              cache.Config{Name: "L1I", SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, HitLatency: 1},
		L1D:              cache.Config{Name: "L1D", SizeBytes: 1 << 20, Ways: 8, LineBytes: 64, HitLatency: 5},
		L2:               cache.Config{Name: "L2", SizeBytes: 4 << 20, Ways: 8, LineBytes: 64, HitLatency: 15},
		LLC:              cache.Config{Name: "LLC", SizeBytes: 16 << 20, Ways: 16, LineBytes: 64, HitLatency: 45},
		MemLatency:       230,
		NextLinePrefetch: true,
	}
	return cfg
}

// simulate assembles and runs src through the full core model.
func simulate(t *testing.T, cfg core.Config, kind wrongpath.Kind, src string, setup func(*mem.Memory)) (*core.Core, core.Stats) {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	if setup != nil {
		setup(m)
	}
	cpu := functional.New(prog, m, 0x7000_0000)
	var opts []frontend.Option
	if kind == wrongpath.WPEmul {
		opts = append(opts, frontend.WithWrongPathEmulation(cfg.BranchPred, cfg.WPMaxLen()))
	}
	fe := frontend.New(cpu, opts...)
	q, err := queue.New(fe, 2*cfg.ROBSize+cfg.FrontendBuffer+64)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.New(cfg, q, wrongpath.New(kind))
	if err != nil {
		t.Fatal(err)
	}
	stats := c.RunWarmup(0, 0)
	if fe.Err() != nil {
		t.Fatalf("functional error: %v", fe.Err())
	}
	return c, stats
}

// repeat generates n copies of a line.
func repeat(line string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestIndependentALUThroughput(t *testing.T) {
	// A hot loop of independent single-cycle instructions on distinct
	// registers: IPC should be limited by the 4 ALU ports (not fetch
	// width 6). A loop is used so the I-cache warms up.
	src := "li s1, 1000\nloop:\n" +
		repeat("addi t0, zero, 1\naddi t1, zero, 2\naddi t2, zero, 3\naddi t3, zero, 4", 16) +
		"addi s1, s1, -1\nbnez s1, loop\nli a7, 0\nli a0, 0\necall\n"
	_, stats := simulate(t, testConfig(), wrongpath.NoWP, src, nil)
	ipc := stats.IPC()
	if ipc < 3.0 || ipc > 4.5 {
		t.Errorf("independent ALU IPC = %.2f, want ~4 (ALU-port bound)", ipc)
	}
}

func TestDependenceChainLatency(t *testing.T) {
	// A hot loop whose body is a serial addi chain: roughly one
	// instruction per cycle once the I-cache is warm.
	src := "li s1, 1000\nloop:\n" + repeat("addi t0, t0, 1", 64) +
		"addi s1, s1, -1\nbnez s1, loop\nli a7, 0\nli a0, 0\necall\n"
	_, stats := simulate(t, testConfig(), wrongpath.NoWP, src, nil)
	ipc := stats.IPC()
	if ipc < 0.85 || ipc > 1.15 {
		t.Errorf("serial chain IPC = %.2f, want ~1", ipc)
	}
}

func TestUnpipelinedDivider(t *testing.T) {
	// Independent divides: a single unpipelined 20-cycle divider caps
	// throughput at ~1/20 IPC for pure divide streams.
	src := "li t1, 7\nli t2, 3\nli s1, 50\nloop:\n" + repeat("div t3, t1, t2", 20) +
		"addi s1, s1, -1\nbnez s1, loop\nli a7, 0\nli a0, 0\necall\n"
	_, stats := simulate(t, testConfig(), wrongpath.NoWP, src, nil)
	ipc := stats.IPC()
	if ipc < 0.04 || ipc > 0.07 {
		t.Errorf("divide-stream IPC = %.3f, want ~0.05", ipc)
	}
}

func TestLoadMissLatencyDominates(t *testing.T) {
	// A pointer chase through cold memory: every load is a serial full
	// miss, so cycles per load approach L1+LLC+memory.
	const n = 200
	src := "li t0, 0\n" + repeat("ld t0, 0(t0)", n) + "li a7, 0\nli a0, 0\necall\n"
	setup := func(m *mem.Memory) {
		// next[i] at 8-byte cells, stride 1 MB to avoid any prefetch/
		// locality: chase 0 -> 1MB -> 2MB -> ...
		addr := uint64(0)
		for i := 0; i < n+1; i++ {
			next := addr + 1<<20
			m.WriteUint64(addr, next)
			addr = next
		}
	}
	cfg := testConfig()
	_, stats := simulate(t, cfg, wrongpath.NoWP, src, setup)
	perLoad := float64(stats.Cycles) / n
	full := float64(cfg.Hierarchy.L1D.HitLatency + cfg.Hierarchy.LLC.HitLatency + cfg.Hierarchy.MemLatency)
	if perLoad < full*0.9 || perLoad > full*1.3 {
		t.Errorf("cycles per chased load = %.1f, want ~%.0f", perLoad, full)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	// A loop whose backward branch is perfectly predictable after
	// warmup vs a data-dependent 50/50 branch pattern: the latter burns
	// pipeline refill time.
	predictable := `
    li   t0, 2000
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 0
    li a0, 0
    ecall
`
	_, pStats := simulate(t, testConfig(), wrongpath.NoWP, predictable, nil)
	if rate := float64(pStats.CondMispredicted) / float64(pStats.CondBranches); rate > 0.05 {
		t.Errorf("loop branch mispredict rate = %.2f", rate)
	}

	// LCG-driven branch: effectively random directions.
	random := `
    li   t0, 2000
    li   t1, 12345
    li   t2, 1103515245
loop:
    mul  t1, t1, t2
    addi t1, t1, 12345
    srli t3, t1, 16
    andi t3, t3, 1
    beqz t3, skip
    nop
skip:
    addi t0, t0, -1
    bnez t0, loop
    li a7, 0
    li a0, 0
    ecall
`
	_, rStats := simulate(t, testConfig(), wrongpath.NoWP, random, nil)
	rate := float64(rStats.CondMispredicted) / float64(rStats.CondBranches)
	if rate < 0.15 {
		t.Errorf("random branch mispredict rate = %.2f, want >= 0.15", rate)
	}
	if rStats.IPC() >= pStats.IPC() {
		t.Errorf("random-branch IPC %.2f not below predictable-branch IPC %.2f",
			rStats.IPC(), pStats.IPC())
	}
}

func TestROBLimitsMemoryParallelism(t *testing.T) {
	// Independent cold loads separated by ROB-filling filler: with a
	// tiny ROB the misses serialize; with a large ROB they overlap.
	src := "li s0, 0x100000\n"
	for i := 0; i < 64; i++ {
		src += "ld t1, " + itoa(int64(i)*1<<20) + "(s0)\n"
		src += repeat("addi t2, t2, 1", 20)
	}
	src += "li a7, 0\nli a0, 0\necall\n"

	small := testConfig()
	small.ROBSize = 16
	_, sStats := simulate(t, small, wrongpath.NoWP, src, nil)

	big := testConfig()
	big.ROBSize = 512
	_, bStats := simulate(t, big, wrongpath.NoWP, src, nil)

	if bStats.Cycles >= sStats.Cycles {
		t.Errorf("large ROB (%d cycles) not faster than small ROB (%d cycles)",
			bStats.Cycles, sStats.Cycles)
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	s := ""
	for v > 0 {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	if neg {
		s = "-" + s
	}
	return s
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A store immediately followed by a load of the same address: the
	// load must not pay a cold-miss latency.
	src := "li s0, 0x500000\nli t0, 42\n" +
		repeat("sd t0, 0(s0)\nld t1, 0(s0)\naddi s0, s0, 1048576", 100) +
		"li a7, 0\nli a0, 0\necall\n"
	_, stats := simulate(t, testConfig(), wrongpath.NoWP, src, nil)
	if stats.LoadForwards < 90 {
		t.Errorf("forwards = %d, want ~100", stats.LoadForwards)
	}
}

func TestWrongPathOnlyAfterMispredict(t *testing.T) {
	// Straight-line code has no mispredicts, so no technique fetches a
	// wrong path.
	src := repeat("addi t0, t0, 1", 500) + "li a7, 0\nli a0, 0\necall\n"
	for _, k := range []wrongpath.Kind{wrongpath.InstRec, wrongpath.Conv, wrongpath.WPEmul} {
		_, stats := simulate(t, testConfig(), k, src, nil)
		if stats.WPFetched != 0 {
			t.Errorf("%v fetched %d wrong-path instructions on straight-line code", k, stats.WPFetched)
		}
	}
}

func TestSyscallSerializes(t *testing.T) {
	src := repeat("li a0, 65\nli a7, 2\necall", 50) + "li a7, 0\nli a0, 0\necall\n"
	_, stats := simulate(t, testConfig(), wrongpath.NoWP, src, nil)
	if stats.Serializations != 51 {
		t.Errorf("serializations = %d, want 51", stats.Serializations)
	}
	// Serialization makes the code slow: well under 1 IPC.
	if stats.IPC() > 0.5 {
		t.Errorf("syscall-heavy IPC = %.2f, expected < 0.5", stats.IPC())
	}
}

func TestConfigValidate(t *testing.T) {
	good := core.DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := core.DefaultConfig()
	bad.FetchWidth = 0
	if bad.Validate() == nil {
		t.Error("zero fetch width validated")
	}
	bad = core.DefaultConfig()
	bad.ROBSize = -1
	if bad.Validate() == nil {
		t.Error("negative ROB validated")
	}
	bad = core.DefaultConfig()
	delete(bad.FUs, isa.ClassDiv)
	if bad.Validate() == nil {
		t.Error("missing FU validated")
	}
	bad = core.DefaultConfig()
	bad.StoreQueueSize = 0
	if bad.Validate() == nil {
		t.Error("zero store queue validated")
	}
}

func TestWPMaxLen(t *testing.T) {
	cfg := core.DefaultConfig()
	if got := cfg.WPMaxLen(); got != cfg.ROBSize+cfg.FrontendBuffer {
		t.Errorf("WPMaxLen = %d", got)
	}
}

func TestStatsDerived(t *testing.T) {
	s := core.Stats{Instructions: 1000, Cycles: 2000, Mispredicts: 10, WPExecuted: 500}
	if s.IPC() != 0.5 {
		t.Errorf("IPC = %f", s.IPC())
	}
	if s.MPKI() != 10 {
		t.Errorf("MPKI = %f", s.MPKI())
	}
	if s.WPFraction() != 0.5 {
		t.Errorf("WPFraction = %f", s.WPFraction())
	}
	var zero core.Stats
	if zero.IPC() != 0 || zero.MPKI() != 0 || zero.WPFraction() != 0 {
		t.Error("zero stats not zero")
	}
}
