package main

import (
	"fmt"

	"ravenguard/internal/control"
	"ravenguard/internal/dynamics"
	"ravenguard/internal/fleet"
	"ravenguard/internal/robot"
	"ravenguard/internal/sim"
	"ravenguard/internal/usb"
)

// Stages of one worker tick, in execution order. tracedWorker reads the
// clock once at every boundary between them: eleven reads per tick, however
// many sessions are resident.
const (
	stCommand   = iota // Rig.StepCommand: console, itp transport, controller, interpose chain
	stPack             // PredictPending scan, BatchStepper.SetLanes, Guard.PredictInto
	stSweep            // BatchStepper.StepEulerAll over the packed guard lanes
	stAbsorb           // Guard.AbsorbPrediction + Rig.ResumeWrite
	stSupervise        // Rig.StepSupervise: plc status tick and brake command
	stReconcile        // LaneSet.Reconcile
	stDACs             // Board.DACs gather into the lane-indexed DAC array
	stPlant            // LaneSet.Step: fused plant integration
	stFinish           // Rig.FinishStep + Session.Note digest fold
	stRetire           // LaneSet.Retire of sessions whose script ended
	numStages
)

var stageNames = [numStages]string{
	"command", "pack", "sweep", "absorb", "supervise", "reconcile", "dacs", "plant", "finish", "retire",
}

// tracedWorker is the traced run's tick driver. It repeats
// fleet.Worker.Tick's stage sequence with the same public calls in the same
// order — so its sessions reach the same digests — and accumulates the time
// between stage boundaries. Admission and retirement mirror fleet.Worker.
type tracedWorker struct {
	clock  sim.Clock
	set    *robot.LaneSet
	byLane []*fleet.Session
	dacs   [][usb.NumChannels]int16
	gbs    *dynamics.BatchStepper
	gpend  []int
	swaps  int64 // LaneSet.OnSwap calls so far

	tr stageTrace
}

// stageTrace accumulates per-stage time and work counts over traced ticks.
type stageTrace struct {
	ns           [numStages]int64
	ticks        int64
	sessionTicks int64 // resident lanes summed over ticks
	activeLanes  int64 // LaneSet.Active() at the plant stage, summed
	predictions  int64 // packed guard lanes, summed
	swaps        int64 // lane swaps made by Reconcile, summed
	tickNs       int64 // tick latency timed around Tick by the round driver
}

func newTracedWorker(capacity int, clock sim.Clock) (*tracedWorker, error) {
	set, err := robot.NewLaneSet(capacity)
	if err != nil {
		return nil, err
	}
	gbs, err := dynamics.NewBatchStepper(capacity)
	if err != nil {
		return nil, err
	}
	w := &tracedWorker{
		clock:  clock,
		set:    set,
		byLane: make([]*fleet.Session, capacity),
		dacs:   make([][usb.NumChannels]int16, capacity),
		gbs:    gbs,
		gpend:  make([]int, capacity),
	}
	set.OnSwap = func(a, b int) {
		w.byLane[a], w.byLane[b] = w.byLane[b], w.byLane[a]
		w.swaps++
	}
	return w, nil
}

// Admit mirrors fleet.Worker.Admit: a resident lane for the plant, and
// Euler guards switched to deferred prediction so the tick batches them.
func (w *tracedWorker) Admit(s *fleet.Session) error {
	lane, err := w.set.Admit(s.Rig().Plant())
	if err != nil {
		return err
	}
	w.byLane[lane] = s
	if g := s.Guard(); g != nil && !g.SchemeRK4() {
		g.SetDeferredPredict(true)
	}
	return nil
}

// Resident returns the number of sessions holding lanes.
func (w *tracedWorker) Resident() int { return w.set.Resident() }

// Tick runs one control period of every resident session, stage by stage
// as fleet.Worker.Tick does, reading the clock at each stage boundary.
func (w *tracedWorker) Tick() error {
	n := w.set.Resident()
	if n == 0 {
		return nil
	}
	var t [numStages + 1]int64
	t[0] = w.clock()
	for lane := 0; lane < n; lane++ {
		if err := w.byLane[lane].Rig().StepCommand(); err != nil {
			return err
		}
	}
	t[1] = w.clock()

	np := 0
	for lane := 0; lane < n; lane++ {
		if g := w.byLane[lane].Guard(); g != nil && g.PredictPending() {
			w.gpend[np] = lane
			np++
		}
	}
	if np > 0 {
		if err := w.gbs.SetLanes(np); err != nil {
			return err
		}
		for k, lane := range w.gpend[:np] {
			w.byLane[lane].Guard().PredictInto(w.gbs, k)
		}
	}
	t[2] = w.clock()
	if np > 0 {
		w.gbs.StepEulerAll(control.Period)
	}
	t[3] = w.clock()
	for k, lane := range w.gpend[:np] {
		s := w.byLane[lane]
		s.Guard().AbsorbPrediction(w.gbs, k)
		if err := s.Rig().ResumeWrite(); err != nil {
			return err
		}
	}
	t[4] = w.clock()

	for lane := 0; lane < n; lane++ {
		w.byLane[lane].Rig().StepSupervise()
	}
	t[5] = w.clock()
	swaps := w.swaps
	w.set.Reconcile()
	w.tr.swaps += w.swaps - swaps
	t[6] = w.clock()
	for lane := 0; lane < n; lane++ {
		w.dacs[lane] = w.byLane[lane].Rig().Board().DACs()
	}
	t[7] = w.clock()
	w.tr.activeLanes += int64(w.set.Active())
	w.set.Step(w.dacs, control.Period)
	t[8] = w.clock()
	for lane := 0; lane < n; lane++ {
		s := w.byLane[lane]
		s.Note(s.Rig().FinishStep())
	}
	t[9] = w.clock()
	for lane := 0; lane < w.set.Resident(); {
		if w.byLane[lane].Rig().Done() {
			if _, err := w.set.Retire(lane); err != nil {
				return err
			}
			w.byLane[w.set.Resident()] = nil
		} else {
			lane++
		}
	}
	t[10] = w.clock()

	for i := range w.tr.ns {
		w.tr.ns[i] += t[i+1] - t[i]
	}
	w.tr.ticks++
	w.tr.sessionTicks += int64(n)
	w.tr.predictions += int64(np)
	return nil
}

// add folds another round's trace into t.
func (t *stageTrace) add(o stageTrace) {
	for i := range t.ns {
		t.ns[i] += o.ns[i]
	}
	t.ticks += o.ticks
	t.sessionTicks += o.sessionTicks
	t.activeLanes += o.activeLanes
	t.predictions += o.predictions
	t.swaps += o.swaps
	t.tickNs += o.tickNs
}

// staged returns the time the stages account for.
func (t stageTrace) staged() int64 {
	var sum int64
	for _, ns := range t.ns {
		sum += ns
	}
	return sum
}

// report sets the fleet per-layer metrics, each with its base.
func (t stageTrace) report(rep *report) {
	ticks, st := float64(t.ticks), float64(t.sessionTicks)
	ns := func(s int) float64 { return float64(t.ns[s]) }
	perSessionTick := func(name string, s int) {
		rep.set(name, ratio(ns(s), st), "%.3f ms over %d session ticks", ns(s)/1e6, t.sessionTicks)
	}
	perTick := func(name string, s int) {
		rep.set(name, ratio(ns(s), ticks), "%.3f ms over %d ticks", ns(s)/1e6, t.ticks)
	}
	guardNs := ns(stPack) + ns(stSweep) + ns(stAbsorb)

	perSessionTick("command.ns_per_session_tick", stCommand)
	perTick("guard.pack_ns_per_tick", stPack)
	rep.set("guard.sweep_ns_per_lane", ratio(ns(stSweep), float64(t.predictions)),
		"%.3f ms over %d packed lanes", ns(stSweep)/1e6, t.predictions)
	rep.set("guard.absorb_ns_per_prediction", ratio(ns(stAbsorb), float64(t.predictions)),
		"%.3f ms over %d predictions", ns(stAbsorb)/1e6, t.predictions)
	rep.set("guard.predictions_per_tick", ratio(float64(t.predictions), ticks),
		"%d predictions over %d ticks", t.predictions, t.ticks)
	rep.set("guard.share", ratio(guardNs, float64(t.tickNs)),
		"pack+sweep+absorb %.3f ms of %.3f ms tick time (guard beginWrite runs inside command)", guardNs/1e6, float64(t.tickNs)/1e6)
	perSessionTick("supervise.ns_per_session_tick", stSupervise)
	perTick("reconcile.ns_per_tick", stReconcile)
	rep.set("reconcile.swaps_per_tick", ratio(float64(t.swaps), ticks), "%d swaps over %d ticks", t.swaps, t.ticks)
	perSessionTick("dacs.ns_per_session_tick", stDACs)
	rep.set("plant.ns_per_active_lane", ratio(ns(stPlant), float64(t.activeLanes)),
		"%.3f ms over %d active lane ticks", ns(stPlant)/1e6, t.activeLanes)
	rep.set("plant.active_ratio", ratio(float64(t.activeLanes), st),
		"%d active of %d resident lane ticks", t.activeLanes, t.sessionTicks)
	perSessionTick("finish.ns_per_session_tick", stFinish)
	perTick("retire.ns_per_tick", stRetire)
	rep.set("tick.unaccounted_ns", ratio(float64(t.tickNs-t.staged()), ticks),
		"%d ns tick time minus %d ns in stages, over %d ticks", t.tickNs, t.staged(), t.ticks)
	rep.set("tick.resident_lanes", ratio(st, ticks), "%d resident lane ticks over %d ticks", t.sessionTicks, t.ticks)

	line := "stage shares of tick time:"
	for s, name := range stageNames {
		line += fmt.Sprintf(" %s %.1f%%", name, 100*ratio(ns(s), float64(t.tickNs)))
	}
	rep.note("%s, unaccounted %.2f%%", line, 100*ratio(float64(t.tickNs-t.staged()), float64(t.tickNs)))
}
