package sim

import "time"

// Clock abstracts wall-time measurement so simulated results never
// depend on the host clock: the timing model is driven purely by
// simulated cycles, and the only wall-time consumer is the Result.Wall
// speed metric. Injecting a Clock keeps that measurement out of the
// simulation's deterministic core — tests inject a fake, and the
// determinism analyzer (cmd/wplint) forbids direct time.Now use in
// internal/ packages.
type Clock interface {
	// Now returns the current time; successive calls must be monotonic
	// for duration measurement.
	Now() time.Time
}

// wallClock is the real clock used when Config.Clock is nil. It is the
// one approved wall-time shim in the simulation packages.
type wallClock struct{}

func (wallClock) Now() time.Time {
	return time.Now() //wplint:allow determinism -- the single approved wall-clock shim behind the Clock interface
}

// FixedClock is a deterministic Clock for tests: every Now call
// advances the reported time by Step.
type FixedClock struct {
	// T is the time the next Now call returns.
	T time.Time
	// Step is added to T after every Now call.
	Step time.Duration
}

// Now returns the current fake time and advances it by Step.
func (c *FixedClock) Now() time.Time {
	t := c.T
	c.T = t.Add(c.Step)
	return t
}
