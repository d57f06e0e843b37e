// Package workloads defines the workload abstraction shared by the GAP
// graph kernels and the SPEC-proxy kernels: a named factory that builds
// a fresh program + memory image for each simulation run (four
// simulator variants each need pristine architectural state).
package workloads

import (
	"repro/internal/functional"
	"repro/internal/isa"
	"repro/internal/mem"
)

// Instance is one ready-to-simulate program image.
type Instance struct {
	// Prog is the assembled program.
	Prog *isa.Program
	// Mem is the initial memory image (data segments laid out).
	Mem *mem.Memory
	// StackTop initializes the stack pointer (0 = no stack).
	StackTop uint64
	// SuggestedMaxInsts is the instruction budget the experiments use
	// for this workload (0 = run to completion).
	SuggestedMaxInsts uint64
	// Validate, when non-nil, checks the architectural result after a
	// functional run (used by the workload tests to prove the kernels
	// compute what they claim).
	Validate func(cpu *functional.CPU) error
}

// Workload builds fresh instances of one benchmark.
type Workload struct {
	// Name is the benchmark's short name ("bfs", "pr", …).
	Name string
	// Suite is the suite the benchmark belongs to ("gap", "specint",
	// "specfp").
	Suite string
	// Input is the canonical %+v rendering of the parameters Build
	// closes over: identity data for sim.Request.Fingerprint, set only
	// by the suite constructors ("" = not addressable).
	Input string
	// Build constructs a fresh instance.
	Build func() (*Instance, error)
}

// MustBuild builds an instance, panicking on error (experiment drivers
// treat workload construction failure as fatal).
func (w Workload) MustBuild() *Instance {
	inst, err := w.Build()
	if err != nil {
		panic("workloads: building " + w.Suite + "/" + w.Name + ": " + err.Error())
	}
	return inst
}

// StandardStackTop is where workloads place the stack by convention.
const StandardStackTop = 0x7fff_f000

// StandardCodeBase is where workloads place code by convention.
const StandardCodeBase = 0x1000
