package functional

import "repro/internal/checkpoint"

// snapshotVersion stamps this package's snapshot section; bump it when
// the walked field set changes.
const snapshotVersion = 1

// State walks the complete architectural state — registers, PC,
// halt/exit status, retirement counters, program output, and the full
// memory image. The program itself is not walked: resume rebuilds the
// instance (workloads.Workload.Build is deterministic) and a load
// overwrites everything execution has changed since.
func (c *CPU) State(s *checkpoint.Stream) {
	s.Section("functional/CPU", snapshotVersion)
	for i := range c.regs {
		s.Uint64(&c.regs[i])
	}
	for i := range c.fregs {
		s.Uint64(&c.fregs[i])
	}
	s.Uint64(&c.pc)
	s.Bool(&c.halted)
	s.Int64(&c.exitCode)
	s.Uint64(&c.instret)
	s.Uint64(&c.seq)
	s.Bool(&c.suppressStores)
	s.Bytes(&c.Output)
	c.Mem.State(s)
}
