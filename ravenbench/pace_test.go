package main

import (
	"testing"
	"time"

	"ravenguard/internal/sim"
)

// TestPaceFactor pins the pace adjustment's arithmetic: a time measured
// just before a reference unit that took p ns reads t × paceRefNs / p.
func TestPaceFactor(t *testing.T) {
	clock := sim.TickClock(250)
	f, end := pace(clock) // two reads, 250 ns apart
	if want := paceRefNs / 250.0; f != want || end != 500 {
		t.Errorf("pace = %g ending at %d, want %g ending at 500", f, end, want)
	}
}

func TestTrimmedMean(t *testing.T) {
	xs := []float64{5, 1e6, 4, 6, 5, 5, 4, 6, 5, 0}
	if got := trimmedMean(xs, 0.1); got != 5 {
		t.Errorf("trimmedMean = %g, want 5 with the outliers dropped", got)
	}
	if got := trimmedMean(nil, 0.1); got != 0 {
		t.Errorf("trimmedMean of none = %g, want 0", got)
	}
}

// TestPaceUnitRepeats pins that every reference unit does the same work.
func TestPaceUnitRepeats(t *testing.T) {
	if a, b := paceUnit(), paceUnit(); a != b || a == 0 {
		t.Errorf("reference units returned %g then %g", a, b)
	}
}

// TestPaceAlongsideStops pins that the concurrent pacer runs units while
// the caller works and that stop returns only after its goroutine ends.
func TestPaceAlongsideStops(t *testing.T) {
	stop := paceAlongside(time.Millisecond, sim.WallClock)
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	if f, units := stop(); units == 0 || f <= 0 {
		t.Errorf("%d units alongside 20 ms of work, factor %g", units, f)
	}
}

// TestLeastDisturbed pins the reduction of a group of rounds: each tick
// keeps its least adjusted time over the group.
func TestLeastDisturbed(t *testing.T) {
	group := []fleetRound{
		{latAdj: []float64{3, 1, 5}, slotAdj: []float64{4, 2, 6}},
		{latAdj: []float64{2, 2, 5}, slotAdj: []float64{3, 3, 7}},
	}
	lat, slot := leastDisturbed(group)
	for k, want := range []float64{2, 1, 5} {
		if lat[k] != want {
			t.Errorf("lat[%d] = %g, want %g", k, lat[k], want)
		}
	}
	for k, want := range []float64{3, 2, 6} {
		if slot[k] != want {
			t.Errorf("slot[%d] = %g, want %g", k, slot[k], want)
		}
	}
	if group[0].latAdj[0] != 3 {
		t.Error("leastDisturbed changed the first round's ticks")
	}
}
