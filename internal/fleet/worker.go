package fleet

import (
	"fmt"

	"ravenguard/internal/control"
	"ravenguard/internal/dynamics"
	"ravenguard/internal/robot"
	"ravenguard/internal/sim"
	"ravenguard/internal/usb"
)

// Worker owns one shard of the fleet: a lane set holding its sessions'
// plants plus the session mirror that lane swaps keep aligned. One
// goroutine owns a Worker; shards share nothing, so workers never
// synchronise inside a tick.
type Worker struct {
	set    *robot.LaneSet
	byLane []*Session
	dacs   [][usb.NumChannels]int16
	clock  sim.Clock
	hist   latencyHist

	// Batched guard prediction: Euler-scheme guards run in deferred mode,
	// parking each tick's frame at the guard while its one-step model
	// prediction joins a dense lockstep sweep here. gbs lanes are packed
	// fresh every tick (guards with nothing to predict — pedal up, desynced
	// feedback — simply don't join), so gpend maps packed guard lane k back
	// to the session lane it came from.
	gbs   *dynamics.BatchStepper
	gpend []int
}

// NewWorker builds a worker able to host up to capacity concurrent
// sessions. clock times each tick for the latency SLO (nil selects
// sim.WallClock).
func NewWorker(capacity int, clock sim.Clock) (*Worker, error) {
	set, err := robot.NewLaneSet(capacity)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	if clock == nil {
		clock = sim.WallClock
	}
	gbs, err := dynamics.NewBatchStepper(capacity)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	w := &Worker{
		set:    set,
		byLane: make([]*Session, capacity),
		dacs:   make([][usb.NumChannels]int16, capacity),
		clock:  clock,
		gbs:    gbs,
		gpend:  make([]int, capacity),
	}
	set.OnSwap = func(a, b int) {
		w.byLane[a], w.byLane[b] = w.byLane[b], w.byLane[a]
	}
	return w, nil
}

// Admit gives the session a resident lane. Its plant joins the parked tail
// and migrates into the lockstep window on the next tick's reconcile.
// Euler-scheme guards are switched to deferred prediction so Tick can fuse
// their model steps into one batch sweep; an RK4 guard (not produced by any
// fleet spec today) would keep its scalar in-line prediction, since the
// worker's sweep integrates all packed lanes with one scheme.
func (w *Worker) Admit(s *Session) error {
	lane, err := w.set.Admit(s.rig.Plant())
	if err != nil {
		return err
	}
	w.byLane[lane] = s
	if s.guard != nil && !s.guard.SchemeRK4() {
		s.guard.SetDeferredPredict(true)
	}
	return nil
}

// Resident returns the number of sessions currently holding lanes.
func (w *Worker) Resident() int { return w.set.Resident() }

// Session returns the session resident in lane (nil when the lane is free).
func (w *Worker) Session(lane int) *Session {
	if lane < 0 || lane >= w.set.Resident() {
		return nil
	}
	return w.byLane[lane]
}

// Tick drives every resident session through one control period as a
// lockstep sweep: all command halves (which park each deferred guard's
// frame), one fused guard-prediction sweep that resumes the parked writes,
// all supervision halves, partition reconcile, one fused plant batch
// integration, all bookkeeping halves with digest folds, then retirement
// (lane compaction) of sessions whose script ended. A steady-state tick —
// no admission, no retirement — does not touch the heap.
//
//ravenlint:noalloc
func (w *Worker) Tick() error {
	n := w.set.Resident()
	if n == 0 {
		return nil
	}
	start := w.clock()

	// Command halves: console, transport, feedback, controller, board
	// write. Sessions are independent, so lane order is immaterial. A
	// deferred-predict guard returns Hold from inside the board write,
	// leaving the frame parked until the batch sweep below absorbs its
	// prediction.
	for lane := 0; lane < n; lane++ {
		if err := w.byLane[lane].rig.StepCommand(); err != nil {
			return err
		}
	}

	// Fused guard prediction: pack every pending guard's model state into
	// dense batch lanes, advance them all with one lockstep Euler sweep,
	// then absorb each prediction (residual check, fusion, mitigation
	// rewrite) and resume its held write. Bit-identical to the scalar
	// in-line path — the batch Euler kernel is lane-equivalent to
	// Stepper.Step, pinned in internal/dynamics tests.
	np := 0
	for lane := 0; lane < n; lane++ {
		if g := w.byLane[lane].guard; g != nil && g.PredictPending() {
			w.gpend[np] = lane
			np++
		}
	}
	if np > 0 {
		if err := w.gbs.SetLanes(np); err != nil {
			return err
		}
		for k, lane := range w.gpend[:np] {
			w.byLane[lane].guard.PredictInto(w.gbs, k)
		}
		w.gbs.StepEulerAll(control.Period)
		for k, lane := range w.gpend[:np] {
			s := w.byLane[lane]
			s.guard.AbsorbPrediction(w.gbs, k)
			if err := s.rig.ResumeWrite(); err != nil {
				return err
			}
		}
	}

	// Supervision halves: PLC status tick and brake command, after every
	// held frame has reached its board — the same frame/supervision order
	// the scalar Rig.Step path observes.
	for lane := 0; lane < n; lane++ {
		w.byLane[lane].rig.StepSupervise()
	}
	// Brake transitions re-home lanes; reconcile before the per-lane DACs
	// are gathered so dacs[i] drives the plant actually in lane i.
	w.set.Reconcile()
	for lane := 0; lane < n; lane++ {
		w.dacs[lane] = w.byLane[lane].rig.Board().DACs()
	}
	w.set.Step(w.dacs, control.Period)
	for lane := 0; lane < n; lane++ {
		s := w.byLane[lane]
		s.Note(s.rig.FinishStep())
	}

	// Retirement compacts by swapping the last resident lane down, so the
	// cursor re-examines the lane it just filled.
	for lane := 0; lane < w.set.Resident(); {
		if w.byLane[lane].rig.Done() {
			if _, err := w.set.Retire(lane); err != nil {
				return err
			}
			w.byLane[w.set.Resident()] = nil
		} else {
			lane++
		}
	}

	w.hist.record(w.clock() - start)
	return nil
}
