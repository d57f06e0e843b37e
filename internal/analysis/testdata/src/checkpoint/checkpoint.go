// Package checkpoint is a wplint fixture: functional checkpoints that
// are not restored on every return path must be flagged, and so must
// snapshot sections stamped with anything but a named constant.
package checkpoint

import (
	"repro/internal/checkpoint"
	"repro/internal/functional"
	"repro/internal/isa"
)

func cpu() *functional.CPU {
	prog := &isa.Program{}
	return functional.New(prog, nil, 0)
}

// LeakyEarlyReturn takes a checkpoint but the early return path skips
// the restore: flagged.
func LeakyEarlyReturn(c *functional.CPU, bail bool) int {
	cp := c.Checkpoint() // want: return path
	if bail {
		return -1
	}
	c.Restore(cp)
	return 0
}

// NeverRestored falls off the end without restoring: flagged.
func NeverRestored(c *functional.CPU) {
	cp := c.Checkpoint() // want: return path
	_ = cp
}

// Paired restores before its only return: passes.
func Paired(c *functional.CPU) int {
	cp := c.Checkpoint()
	c.Restore(cp)
	return 0
}

// DeferredRestore releases through a defer covering all paths: passes.
func DeferredRestore(c *functional.CPU, bail bool) int {
	cp := c.Checkpoint()
	defer c.Restore(cp)
	if bail {
		return -1
	}
	return 0
}

// DeferredClosureRestore releases inside a deferred closure: passes.
func DeferredClosureRestore(c *functional.CPU) int {
	cp := c.Checkpoint()
	defer func() { c.Restore(cp) }()
	return 1
}

// --- snapshot section stamps ---

// snapshotVersion stamps the fixture sections.
const snapshotVersion = 1

// named stamps its section with the named version constant: passes.
type named struct {
	a uint64
}

func (s *named) State(st *checkpoint.Stream) {
	st.Section("fixture/named", snapshotVersion)
	st.Uint64(&s.a)
}

// literalStamp hardcodes its section version, so a field change cannot
// force a visible bump: flagged at the literal.
type literalStamp struct {
	a uint64
}

func (s *literalStamp) State(st *checkpoint.Stream) {
	st.Section("fixture/literalStamp", 1) // want: literal version
	st.Uint64(&s.a)
}

// computedStamp derives its version at run time: flagged.
type computedStamp struct {
	a uint64
}

func (s *computedStamp) State(st *checkpoint.Stream) {
	st.Section("fixture/computedStamp", uint32(s.a)) // want: non-constant version
	st.Uint64(&s.a)
}
