package main

import (
	"math"
	"time"

	"ravenguard/internal/sim"
)

// Pace adjustment. The box this benchmark was defined on is a shared VM
// whose speed moves with load outside it: identical fleet rounds ran
// between about 80 and 190 sessions/core, in phases lasting from
// milliseconds to minutes, with no steal time and thread CPU time equal to
// wall time. So every end-to-end time is measured alongside a fixed,
// benchmark-owned reference kernel and stated at the kernel's reference
// pace: a time t measured while the kernel ran at p ns per unit reads
// t × paceRefNs / p. The kernel is not program code, so a change to the
// program moves t and leaves p alone. README.md, "Pace adjustment", gives
// the measurements behind this.

// paceRefNs is the reference kernel's time per unit on an undisturbed
// 2 GHz Xeon vCPU of the box the benchmark was defined on.
const paceRefNs = 5000

// paceLanes is the reference kernel's width.
const paceLanes = 64

// paceInput is where every unit starts, so every unit does the same work.
var paceInput = func() (x [paceLanes]float64) {
	for i := range x {
		x[i] = float64(i) / 100
	}
	return x
}()

// paceUnit runs the reference kernel once: three explicit steps of a
// nonlinear decay over paceLanes lanes, from paceInput.
func paceUnit() float64 {
	x := paceInput
	for it := 0; it < 3; it++ {
		for i, v := range x {
			x[i] = v*0.999 + 0.001*math.Sin(1.3*v) - 0.0005*math.Tanh(v) + 0.0001*math.Cos(v)/(1+v*v)
		}
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// paceSink keeps the reference kernel from being optimised away.
var paceSink float64

// pace runs one reference unit right after a timed call and returns the
// factor that states the call's time at the reference pace, and the clock
// reading when the unit ended.
func pace(clock sim.Clock) (factor float64, end int64) {
	a := clock()
	paceSink += paceUnit()
	end = clock()
	return paceRefNs / float64(max(end-a, 1)), end
}

// paceAlongside runs a reference unit every interval on a goroutine of its
// own, for timing a call that occupies every P with goroutines the
// benchmark cannot interleave units with. The Go scheduler runs each unit
// on whichever P next yields, so the units sample every worker's pace
// while the call runs. stop ends the goroutine, waits for it, and returns
// the factor that states the call's time at the reference pace:
// paceRefNs over the units' mean time, trimmed of the slowest and fastest
// tenth so that units the scheduler interrupted cannot move it.
func paceAlongside(interval time.Duration, clock sim.Clock) (stop func() (factor float64, units int)) {
	done := make(chan struct{})
	out := make(chan []float64)
	go func() {
		var unitNs []float64
		var sink float64
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				paceSink += sink // before the send that stop waits for
				out <- unitNs
				return
			case <-t.C:
				a := clock()
				sink += paceUnit()
				unitNs = append(unitNs, float64(clock()-a))
			}
		}
	}()
	return func() (float64, int) {
		close(done)
		unitNs := <-out
		m := trimmedMean(unitNs, 0.1)
		if m <= 0 {
			return 1, len(unitNs)
		}
		return paceRefNs / m, len(unitNs)
	}
}
