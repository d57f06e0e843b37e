// Package specproxy provides twenty synthetic kernels standing in for
// the SPEC CPU 2017 rate suite the paper evaluates (SimPoint traces of
// the real suite are not reproducible here — see DESIGN.md). The
// kernels are split like the paper splits its results: ten "INT-like"
// kernels with data-dependent branches and irregular accesses (the
// population whose error distribution is negatively skewed without
// wrong-path modeling) and ten "FP-like" kernels dominated by regular,
// predictable number-crunching loops (the population that sits at ≈0%
// error regardless of technique).
//
// Each kernel carries a Go mirror of its computation; the workload's
// Validate hook compares the program's exit code against the mirror,
// proving the assembly computes what it claims.
package specproxy

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/functional"
	"repro/internal/graph"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// Data-segment bases shared by the kernels.
const (
	data1Base = 0x1000_0000
	data2Base = 0x2000_0000
	data3Base = 0x3000_0000
	data4Base = 0x4000_0000
)

// Params scales the proxy suite.
type Params struct {
	// Scale multiplies the kernels' default working-set and iteration
	// sizes; 1.0 is the experiment scale. Values below 1 shrink the
	// kernels for unit tests.
	Scale float64
	// Seed drives the deterministic data generators.
	Seed uint64
}

// DefaultParams returns the experiment-scale configuration.
func DefaultParams() Params { return Params{Scale: 1.0, Seed: 1234} }

// TestParams returns a shrunken configuration for unit tests.
func TestParams() Params { return Params{Scale: 0.02, Seed: 99} }

// scaled applies the scale factor with a floor.
func (p Params) scaled(n, min int) int {
	v := int(float64(n) * p.Scale)
	if v < min {
		return min
	}
	return v
}

// proxy describes one kernel.
type proxy struct {
	name string
	fp   bool
	// build generates data into memory, returns the assembly source,
	// the symbols it needs, and the expected exit code computed by the
	// Go mirror over the same data.
	build func(p Params, m *mem.Memory, rng *graph.RNG) (source string, syms map[string]uint64, expect int64)
	// maxInsts caps the timing simulation.
	maxInsts uint64
}

func (k proxy) workload(p Params) workloads.Workload {
	suite := "specint"
	if k.fp {
		suite = "specfp"
	}
	return workloads.Workload{
		Name:  k.name,
		Suite: suite,
		Input: fmt.Sprintf("%+v", p),
		Build: func() (*workloads.Instance, error) {
			m := mem.New()
			rng := graph.NewRNG(p.Seed)
			source, syms, expect := k.build(p, m, rng)
			prog, err := asm.Assemble(source,
				asm.WithBase(workloads.StandardCodeBase),
				asm.WithSymbols(syms))
			if err != nil {
				return nil, fmt.Errorf("specproxy/%s: %w", k.name, err)
			}
			return &workloads.Instance{
				Prog:              prog,
				Mem:               m,
				StackTop:          workloads.StandardStackTop,
				SuggestedMaxInsts: k.maxInsts,
				Validate: func(cpu *functional.CPU) error {
					if got := cpu.ExitCode(); got != expect {
						return fmt.Errorf("specproxy/%s: exit code %d, want %d", k.name, got, expect)
					}
					return nil
				},
			}, nil
		},
	}
}

var intKernels = []proxy{
	hashloop, treewalk, chase, rlescan, blocksort,
	heapsim, hashtab, sadscan, bitboard, randwalk,
}

var fpKernels = []proxy{
	streamTriad, stencil1d, matmul, nbody, conv2d,
	fdtd, dotprod, raysphere, stencil3d, wave1d,
}

// IntSuite returns the ten INT-like workloads.
func IntSuite(p Params) []workloads.Workload {
	out := make([]workloads.Workload, len(intKernels))
	for i, k := range intKernels {
		out[i] = k.workload(p)
	}
	return out
}

// FPSuite returns the ten FP-like workloads.
func FPSuite(p Params) []workloads.Workload {
	out := make([]workloads.Workload, len(fpKernels))
	for i, k := range fpKernels {
		out[i] = k.workload(p)
	}
	return out
}

// Suite returns all twenty workloads, INT first.
func Suite(p Params) []workloads.Workload {
	return append(IntSuite(p), FPSuite(p)...)
}
