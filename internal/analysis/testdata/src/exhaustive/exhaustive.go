// Package exhaustive is a wplint fixture: switches over the simulator
// enums that miss declared constants without a default must be
// flagged; exhaustive switches and defaulted switches must pass.
package exhaustive

import (
	"repro/internal/isa"
	"repro/internal/simerr"
	"repro/internal/wrongpath"
)

// MissingClassCases lacks most isa.Class cases and has no default.
func MissingClassCases(c isa.Class) int {
	switch c { // want: not exhaustive
	case isa.ClassALU:
		return 1
	case isa.ClassLoad:
		return 2
	}
	return 0
}

// MissingKindCases drops the reproduction's ConvResolve extension —
// exactly the "new policy added, dispatch not updated" hazard.
func MissingKindCases(k wrongpath.Kind) string {
	switch k { // want: not exhaustive
	case wrongpath.NoWP:
		return "nowp"
	case wrongpath.InstRec:
		return "instrec"
	case wrongpath.Conv:
		return "conv"
	case wrongpath.WPEmul:
		return "wpemul"
	}
	return ""
}

// Defaulted handles the remainder explicitly: passes.
func Defaulted(c isa.Class) bool {
	switch c {
	case isa.ClassLoad, isa.ClassStore:
		return true
	default:
		return false
	}
}

// Exhaustive covers every declared wrongpath.Kind: passes without a
// default.
func Exhaustive(k wrongpath.Kind) bool {
	switch k {
	case wrongpath.NoWP:
		return false
	case wrongpath.InstRec, wrongpath.Conv, wrongpath.ConvResolve:
		return true
	case wrongpath.WPEmul:
		return true
	}
	return false
}

// NonEnumSwitch is outside the enforced enum set: passes.
func NonEnumSwitch(s string) int {
	switch s {
	case "a":
		return 1
	}
	return 0
}

// CompleteKindList opts into the coverage check and names every Kind:
// passes. This is the wrongpath.Kinds() idiom.
var CompleteKindList = [...]wrongpath.Kind{ //wplint:exhaustive
	wrongpath.NoWP, wrongpath.InstRec, wrongpath.Conv, wrongpath.ConvResolve, wrongpath.WPEmul,
}

// IncompleteKindList is marked exhaustive but drops ConvResolve — the
// "new Kind added, canonical list not updated" hazard.
var IncompleteKindList = []wrongpath.Kind{ //wplint:exhaustive // want: missing ConvResolve
	wrongpath.NoWP, wrongpath.InstRec, wrongpath.Conv, wrongpath.WPEmul,
}

// UnmarkedPartialList carries no directive: deliberately partial lists
// (e.g. the approximate-techniques subset) stay legal.
var UnmarkedPartialList = []wrongpath.Kind{wrongpath.NoWP, wrongpath.Conv}

// MarkedNonEnumList is marked but its element type is outside the
// enforced enum set: passes.
var MarkedNonEnumList = []int{ //wplint:exhaustive
	1, 2, 3,
}

// KindAlias is a transparent alias: switches over it are checked
// against the underlying enforced enum.
type KindAlias = wrongpath.Kind

// AliasedSwitch misses ConvResolve through the alias: flagged.
func AliasedSwitch(k KindAlias) bool {
	switch k { // want: not exhaustive
	case wrongpath.NoWP, wrongpath.InstRec, wrongpath.Conv, wrongpath.WPEmul:
		return true
	}
	return false
}

// localKind renames the enforced enum; coverage still applies and is
// compared by value, so converted constants count.
type localKind wrongpath.Kind

// RenamedSwitch misses every case but NoWP: flagged.
func RenamedSwitch(k localKind) bool {
	switch k { // want: not exhaustive
	case localKind(wrongpath.NoWP):
		return true
	}
	return false
}

// RenamedExhaustive covers all constants through conversions: passes.
func RenamedExhaustive(k localKind) bool {
	switch k {
	case localKind(wrongpath.NoWP), localKind(wrongpath.InstRec), localKind(wrongpath.Conv),
		localKind(wrongpath.ConvResolve), localKind(wrongpath.WPEmul):
		return true
	}
	return false
}

// SentinelSwitch dispatches on the fault classification but ignores
// half the taxonomy: flagged.
func SentinelSwitch(err error) string {
	switch err { // want: missing ErrCanceled, ErrTraceCorrupt
	case simerr.ErrWorkerPanic:
		return "panic"
	case simerr.ErrConfig:
		return "config"
	}
	return ""
}

// SentinelSwitchDefaulted handles the remainder explicitly: passes.
func SentinelSwitchDefaulted(err error) string {
	switch err {
	case simerr.ErrWorkerPanic:
		return "panic"
	default:
		return "other"
	}
}

// SentinelSwitchComplete names every sentinel: passes.
func SentinelSwitchComplete(err error) bool {
	switch err {
	case simerr.ErrTraceCorrupt, simerr.ErrWorkerPanic:
		return true
	case simerr.ErrConfig, simerr.ErrCanceled:
		return false
	}
	return false
}

// NonSentinelErrorSwitch compares against a local error only: passes
// (the sentinel rule keys on the simerr taxonomy, not every error).
func NonSentinelErrorSwitch(err, sentinel error) bool {
	switch err {
	case sentinel:
		return true
	}
	return false
}

// FaultTypeSwitch names a fault type with no default: unknown fault
// classes would be silently dropped. Flagged.
func FaultTypeSwitch(err error) uint64 {
	switch f := err.(type) { // want: type switch over simerr fault types has no default
	case *simerr.Fault:
		return f.PC
	}
	return 0
}

// FaultTypeSwitchDefaulted declares the open-world arm: passes.
func FaultTypeSwitchDefaulted(err error) bool {
	switch err.(type) {
	case *simerr.Fault:
		return true
	default:
		return false
	}
}

// PlainTypeSwitch never names a fault type: passes.
func PlainTypeSwitch(x any) bool {
	switch x.(type) {
	case int:
		return true
	}
	return false
}
