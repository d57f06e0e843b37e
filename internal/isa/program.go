package isa

import (
	"fmt"
	"sort"
	"strings"
)

// Program is an assembled code image: a contiguous sequence of
// instructions starting at Base, an entry point, and the symbol table
// produced by the assembler. Data segments are laid out separately in
// the functional simulator's memory by the workload loader.
type Program struct {
	// Base is the address of Insts[0]. Instruction i lives at
	// Base + i*InstBytes.
	Base uint64
	// Entry is the PC at which execution starts.
	Entry uint64
	// Insts holds the decoded instructions.
	Insts []Inst
	// Symbols maps label names to addresses.
	Symbols map[string]uint64
}

// At returns the instruction at pc. ok is false if pc is outside the
// program or not instruction-aligned.
func (p *Program) At(pc uint64) (Inst, bool) {
	if pc < p.Base || (pc-p.Base)%InstBytes != 0 {
		return Inst{}, false
	}
	idx := (pc - p.Base) / InstBytes
	if idx >= uint64(len(p.Insts)) {
		return Inst{}, false
	}
	return p.Insts[idx], true
}

// Contains reports whether pc addresses an instruction of the program.
func (p *Program) Contains(pc uint64) bool {
	_, ok := p.At(pc)
	return ok
}

// End returns the first address past the last instruction.
func (p *Program) End() uint64 {
	return p.Base + uint64(len(p.Insts))*InstBytes
}

// Symbol returns the address of a label.
func (p *Program) Symbol(name string) (uint64, bool) {
	a, ok := p.Symbols[name]
	return a, ok
}

// MustSymbol returns the address of a label, panicking if absent. It is
// intended for workload construction code where a missing label is a
// programming error.
func (p *Program) MustSymbol(name string) uint64 {
	a, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("isa: program has no symbol %q", name))
	}
	return a
}

// Disassemble renders the whole program with addresses and labels, for
// debugging and for wpasm -disasm.
func (p *Program) Disassemble() string {
	// Iterate the symbol table in sorted-name order so the label lists
	// are built deterministically (map iteration order must never reach
	// output — enforced by cmd/wplint's determinism analyzer).
	names := make([]string, 0, len(p.Symbols))
	for name := range p.Symbols {
		names = append(names, name)
	}
	sort.Strings(names)
	labels := make(map[uint64][]string)
	for _, name := range names {
		addr := p.Symbols[name]
		labels[addr] = append(labels[addr], name)
	}
	var b strings.Builder
	for i, in := range p.Insts {
		pc := p.Base + uint64(i)*InstBytes
		for _, name := range labels[pc] {
			fmt.Fprintf(&b, "%s:\n", name)
		}
		fmt.Fprintf(&b, "  %08x:  %s\n", pc, in)
	}
	return b.String()
}
