package main

import "time"

// On a shared two-vCPU VM, host speed was seen to drift by up to half
// within minutes, with no steal time visible in the guest, and the
// drift moves every host-time measurement together. So every timed
// region is followed by a short calibration loop, and the region's time
// is scaled by how slow the loop ran around it: reported times are in
// reference-host seconds, which repeat where raw seconds do not. The
// record keeps the scales, so raw time is recoverable.

// refCalibration is a round figure near calibrate's duration on a quiet
// two-vCPU 2.1 GHz Xeon VM with go1.24. It only sets the unit: a
// reported second is the time in which calibrate runs 100 times.
const refCalibration = 10 * time.Millisecond

// calTable is the calibration loop's working set: 16 MB, beyond the
// last-level cache, like the simulator's own irregular accesses. With a
// 4 MB table the simulator slowed about 1.25 times as much as the loop
// under the same contention; with 16 MB, about as much.
var calTable = func() []uint64 {
	t := make([]uint64, 1<<21)
	x := uint64(88172645463325252)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	return t
}()

var calSink int

// calibrate runs a fixed pure-Go loop of random loads and
// data-dependent branches, using no simulator code, and returns how
// long it took.
func calibrate() time.Duration {
	x := uint64(12345)
	sum := 0
	start := time.Now()
	for i := 0; i < 700_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		v := calTable[x>>43]
		if v&1 == 0 {
			sum += int(v >> 40)
		} else {
			sum -= int(v >> 50)
		}
	}
	calSink = sum
	return time.Since(start)
}

// hostSpeed scales timed regions to the reference host. Not safe for
// concurrent use: regions are timed one after another.
type hostSpeed struct {
	last   time.Duration // the latest calibration
	scales []float64     // every region's scale, for the record
}

func newHostSpeed() *hostSpeed { return &hostSpeed{last: calibrate()} }

// scale calibrates after a region and returns the factor that turns its
// raw time into reference-host time: the reference calibration over the
// mean of the calibrations just before and just after the region. A nil
// hostSpeed leaves time raw.
func (h *hostSpeed) scale() float64 {
	if h == nil {
		return 1
	}
	after := calibrate()
	s := float64(2*refCalibration) / float64(h.last+after)
	h.last = after
	h.scales = append(h.scales, s)
	return s
}

func scaled(d time.Duration, s float64) time.Duration { return time.Duration(float64(d) * s) }
