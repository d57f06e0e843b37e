// Package cliobs is the shared observability surface of the CLIs
// (wpsim, wpexp, wpserved): the -pprof, -metrics-out and
// -trace-out flags, and the start/finish lifecycle around a run. It
// exists so the commands expose identical flags with identical
// semantics and the README documents them once.
//
// The lifecycle contract the commands rely on:
//
//   - Start either enables everything the flags requested or nothing:
//     on error it unwinds whatever it had already opened (stops the CPU
//     profiler, closes and removes a partially-created trace file), so
//     a failed Start never leaks a running profiler or an open file.
//   - Finish is idempotent and safe under concurrent calls; the second
//     and later calls are no-ops. Commands defer it so the requested
//     output files are flushed before every exit path — including
//     degraded (exit-code-3) and hard-failure exits.
package cliobs

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"repro/internal/obs"
)

// Flags bundles the observability flag values and the live outputs
// they enable.
type Flags struct {
	PProf      string
	MetricsOut string
	TraceOut   string

	mu       sync.Mutex
	registry *obs.Registry
	sink     *obs.TraceSink
	traceF   *os.File
	stopProf func() error
}

// Register installs the three flags on fs (the CLIs pass
// flag.CommandLine or their command's FlagSet).
func (o *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&o.PProf, "pprof", "", "write a CPU profile of the process to this file (view with go tool pprof)")
	fs.StringVar(&o.MetricsOut, "metrics-out", "", "write the run's observability metrics (JSON, see internal/obs) to this file")
	fs.StringVar(&o.TraceOut, "trace-out", "", "write a cycle-event trace (Chrome-trace/Perfetto JSON; open in chrome://tracing or ui.perfetto.dev) to this file")
}

// Start begins profiling and opens the metric/trace outputs according
// to the parsed flag values. The returned registry and sink are nil
// for outputs that were not requested — precisely the nil-disables
// contract of sim.Config.Metrics/Trace. On error everything already
// opened is unwound: no profiler keeps running and no file stays open
// (a partially-created trace file is removed).
func (o *Flags) Start() (*obs.Registry, *obs.TraceSink, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	var undo []func()
	fail := func(err error) (*obs.Registry, *obs.TraceSink, error) {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		o.registry, o.sink, o.traceF, o.stopProf = nil, nil, nil, nil
		return nil, nil, err
	}
	if o.PProf != "" {
		stop, err := obs.StartCPUProfile(o.PProf)
		if err != nil {
			return fail(err)
		}
		o.stopProf = stop
		undo = append(undo, func() { _ = stop() })
	}
	if o.MetricsOut != "" {
		o.registry = obs.NewRegistry()
	}
	if o.TraceOut != "" {
		f, err := os.Create(o.TraceOut)
		if err != nil {
			return fail(fmt.Errorf("creating trace output: %w", err))
		}
		o.traceF = f
		o.sink = obs.NewTraceSink(f)
	}
	return o.registry, o.sink, nil
}

// Finish stops the profile and flushes the metric and trace files. It
// is idempotent — the second and later calls (from any goroutine) are
// no-ops — and safe to call when Start enabled nothing, failed, or was
// never called. Commands defer it so every exit path, clean or not,
// flushes the requested outputs first.
func (o *Flags) Finish() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if o.stopProf != nil {
		keep(o.stopProf())
		o.stopProf = nil
	}
	if o.registry != nil {
		f, err := os.Create(o.MetricsOut)
		keep(err)
		if err == nil {
			keep(o.registry.WriteJSON(f))
			keep(f.Close())
		}
		o.registry = nil
	}
	if o.sink != nil {
		keep(o.sink.Close())
		keep(o.traceF.Close())
		o.sink, o.traceF = nil, nil
	}
	return first
}
