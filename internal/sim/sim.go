// Package sim wires the full functional-first simulator together:
// functional CPU → frontend (with optional wrong-path emulation) →
// decoupling queue → out-of-order core with a wrong-path policy. It is
// the library's primary public surface. It exports two run entry points:
//
//   - Execute(Request) is the execution path every driver uses: a Config
//     plus one input (a workload or a recorded trace), with resume,
//     panic containment and metrics in one place.
//   - Run(cfg, inst) runs one prebuilt instance through one session.
//
// Both go through one session layer: a Source (live functional
// frontend, parallel frontend, or trace interpreter — the paper's three
// frontend kinds) feeds a Session, which builds queue → policy → core
// and collects the Result in one place. Fan-outs run Execute on the
// internal/batch worker pool.
package sim

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workloads"
	"repro/internal/wrongpath"
)

// Config configures one simulation.
type Config struct {
	// Core is the timing-model configuration.
	Core core.Config
	// WP selects the wrong-path modeling technique.
	WP wrongpath.Kind
	// MaxInsts caps the simulated correct-path instructions
	// (0 = run to program completion).
	MaxInsts uint64
	// WarmupInsts functionally warms caches, TLBs, predictor and code
	// cache with this many instructions before detailed simulation —
	// the warming phase of sampled simulation (the paper simulates
	// SimPoint samples; warming plays the same role here).
	WarmupInsts uint64
	// QueueLookahead overrides the decoupling queue's guaranteed
	// run-ahead; 0 selects the default, 2×ROB + front-end buffer + a
	// margin, which is what convergence detection needs to never stall.
	QueueLookahead int
	// PolicyFactory overrides the wrong-path policy construction (used
	// by the ablation experiments, e.g. conv without the independence
	// check). When nil, wrongpath.New(WP) is used. WP should still name
	// the closest standard kind (it controls frontend emulation).
	PolicyFactory func() wrongpath.Policy
	// ParallelFrontend runs the functional simulator in its own
	// goroutine, overlapping it with the performance simulation — the
	// decoupling speedup the paper attributes to functional-first
	// simulation. Results are bit-identical to the synchronous mode.
	ParallelFrontend bool
	// Clock measures Result.Wall (the paper's simulation-speed metric).
	// nil selects the real wall clock; tests inject a fake so no
	// simulation output ever depends on host time.
	Clock Clock
	// Metrics is the optional observability registry; runs sample live
	// distributions (queue occupancy, peek depth) into it, and Run and
	// Execute publish the result's aggregate counters exactly
	// once. nil disables metrics; a disabled run's simulation output is
	// bit-identical to an instrumented build's.
	Metrics *obs.Registry
	// Trace is the optional cycle-event trace sink (Chrome-trace JSON);
	// each run emits its spans onto its own track. nil disables tracing.
	Trace *obs.TraceSink
	// ObsLabel names the workload in metric labels and trace track names
	// ("gap/bfs"); Execute fills it from the workload when empty.
	ObsLabel string
	// Ctx, when non-nil, cancels the run: when it is done, the core's
	// lane hook stops the simulation at the next lane boundary, and
	// Result.Err carries a typed simerr.ErrCanceled fault. nil means the
	// run cannot be canceled.
	Ctx context.Context
	// CheckpointDir, with CheckpointEvery > 0, enables crash-safe
	// checkpointing: the complete deterministic simulation state is
	// written to a versioned, checksummed snapshot file in this directory
	// at the first lane boundary past every CheckpointEvery retired
	// instructions. Execute restores the newest snapshot (see its resume
	// rule) and continues to a bit-identical Result. Checkpointing
	// requires a snapshot-capable source: the synchronous functional
	// frontend or a trace reader, not the parallel frontend (its
	// producer goroutine's in-flight batches are not deterministic
	// state).
	CheckpointDir string
	// CheckpointEvery is the snapshot interval in retired instructions;
	// 0 disables checkpointing.
	CheckpointEvery uint64
	// OnCheckpoint, when non-nil, is invoked synchronously on the
	// simulation goroutine after every successful snapshot write — the
	// chaos harness's kill-point hook. It must not touch the session.
	OnCheckpoint func(insts uint64, path string)
}

// clock returns the configured Clock, defaulting to the wall clock.
func (c Config) clock() Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return wallClock{}
}

// Default returns the Golden-Cove-like configuration with the given
// wrong-path technique.
func Default(wp wrongpath.Kind) Config {
	return Config{Core: core.DefaultConfig(), WP: wp}
}

func (c Config) lookahead() int {
	if c.QueueLookahead > 0 {
		return c.QueueLookahead
	}
	return 2*c.Core.ROBSize + c.Core.FrontendBuffer + 64
}

// Result collects everything a simulation produces.
type Result struct {
	// WP is the technique that ran.
	WP wrongpath.Kind
	// Core holds the pipeline-level statistics (cycles, IPC, branches,
	// wrong-path instruction counts).
	Core core.Stats
	// Policy holds the wrong-path policy statistics (convergence
	// metrics for the conv technique).
	Policy wrongpath.Stats
	// Cache statistics per level, split correct/wrong path.
	L1I, L1D, L2, LLC cache.LevelStats
	// TLB statistics (zero when the TLBs are disabled).
	ITLB, DTLB cache.LevelStats
	// MemAccesses counts DRAM accesses; WrongMemAccesses those issued
	// by wrong-path requests.
	MemAccesses      uint64
	WrongMemAccesses uint64
	// FunctionalInsts is the number of correct-path instructions the
	// functional simulator executed.
	FunctionalInsts uint64
	// WPEmulatedPaths/Insts count the frontend's functional wrong-path
	// emulations (wpemul mode only).
	WPEmulatedPaths uint64
	WPEmulatedInsts uint64
	// Output is the program's printed output.
	Output []byte
	// Wall is the host wall-clock time of the run (for the paper's
	// simulation-speed comparison).
	Wall time.Duration
	// Err records a fault that ended the run early, if any: a
	// functional-simulation error, a typed simerr fault from the trace
	// reader (ErrTraceCorrupt), a recovered producer panic
	// (ErrWorkerPanic), or a cancellation (ErrCanceled).
	Err error
}

// IPC returns the projected instructions per cycle.
func (r *Result) IPC() float64 { return r.Core.IPC() }

// Run simulates the workload instance under the configuration. It is a
// thin wrapper over the session layer: a live functional Source plus a
// Session, with results identical to constructing both by hand.
func Run(cfg Config, inst *workloads.Instance) (*Result, error) {
	src := NewFunctionalSource(cfg, inst)
	s, err := NewSession(cfg, src)
	if err != nil {
		src.Close()
		return nil, err
	}
	res := s.Run()
	cfg.publish(res)
	return res, nil
}

// Error is the paper's accuracy metric: the relative difference in
// projected performance (IPC) between a technique and the reference
// (wrong-path emulation). Negative means the technique underestimates
// performance.
func Error(tech, ref *Result) float64 {
	if ref.IPC() == 0 {
		return 0
	}
	return (tech.IPC() - ref.IPC()) / ref.IPC()
}

// DescribeConfig renders the core configuration as the paper's Table I:
// the simulated core parameters.
func DescribeConfig(cfg core.Config) string {
	var b strings.Builder
	h := cfg.Hierarchy
	fmt.Fprintf(&b, "%-28s %d-wide fetch, %d-wide dispatch, %d-wide issue, %d-wide commit\n",
		"Pipeline", cfg.FetchWidth, cfg.DispatchWidth, cfg.IssueWidth, cfg.CommitWidth)
	fmt.Fprintf(&b, "%-28s %d entries (+%d front-end buffer)\n", "Reorder buffer", cfg.ROBSize, cfg.FrontendBuffer)
	fmt.Fprintf(&b, "%-28s %d cycles front-end depth, %d cycles redirect penalty\n",
		"Pipeline depth", cfg.FetchToDispatch, cfg.RedirectPenalty)
	fmt.Fprintf(&b, "%-28s tournament bimodal(%d)+gshare(%d), %d-entry RAS, %d-entry indirect\n",
		"Branch predictor",
		1<<uint(cfg.BranchPred.BimodalBits), 1<<uint(cfg.BranchPred.GShareBits),
		cfg.BranchPred.RASSize, 1<<uint(cfg.BranchPred.IndirectBits))
	for _, lv := range []cache.Config{h.L1I, h.L1D, h.L2, h.LLC} {
		fmt.Fprintf(&b, "%-28s %d KB, %d-way, %d B lines, %d-cycle hit\n",
			lv.Name, lv.SizeBytes>>10, lv.Ways, lv.LineBytes, lv.HitLatency)
	}
	if h.ITLB.Entries > 0 {
		fmt.Fprintf(&b, "%-28s %d entries, %d-way, %d-cycle walk\n", "ITLB", h.ITLB.Entries, h.ITLB.Ways, h.ITLB.WalkLatency)
	}
	if h.DTLB.Entries > 0 {
		fmt.Fprintf(&b, "%-28s %d entries, %d-way, %d-cycle walk\n", "DTLB", h.DTLB.Entries, h.DTLB.Ways, h.DTLB.WalkLatency)
	}
	fmt.Fprintf(&b, "%-28s %d cycles\n", "Memory latency", h.MemLatency)
	if h.MemGapCycles > 0 {
		fmt.Fprintf(&b, "%-28s 1 line / %d cycles\n", "Memory bandwidth", h.MemGapCycles)
	}
	fmt.Fprintf(&b, "%-28s %d-entry store queue\n", "Store queue", cfg.StoreQueueSize)
	return b.String()
}
