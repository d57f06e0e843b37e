package sim

import "time"

// wallClock is the one approved wall-time shim in the simulation
// packages: Session.Run reads it around the timing run to measure
// Result.Wall, the paper's simulation-speed metric. The timing model is
// driven purely by simulated cycles, so no simulated statistic depends
// on it. The determinism analyzer (cmd/wplint) forbids every other
// host-clock read in internal/ packages, and wpflow treats this Now as
// a wall-clock taint source.
type wallClock struct{}

func (wallClock) Now() time.Time {
	return time.Now() //wplint:allow determinism -- the single approved wall-clock shim
}
