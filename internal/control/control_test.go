package control

import (
	"math"
	"strings"
	"testing"

	"ravenguard/internal/interpose"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/mathx"
	"ravenguard/internal/motor"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/usb"
)

func TestPIDProportional(t *testing.T) {
	pid := NewPID(PIDGains{Kp: 2})
	if got := pid.Update(0.5, 1e-3); got != 1.0 {
		t.Fatalf("P-only output = %v, want 1.0", got)
	}
}

func TestPIDIntegralAccumulatesAndClamps(t *testing.T) {
	pid := NewPID(PIDGains{Ki: 10, IntegralClamp: 0.05})
	for i := 0; i < 1000; i++ {
		pid.Update(1.0, 1e-3)
	}
	if got := pid.Integral(); got != 0.05 {
		t.Fatalf("integral = %v, want clamped at 0.05", got)
	}
	// Negative errors unwind it symmetrically.
	for i := 0; i < 20000; i++ {
		pid.Update(-1.0, 1e-3)
	}
	if got := pid.Integral(); got != -0.05 {
		t.Fatalf("integral = %v, want clamped at -0.05", got)
	}
}

func TestPIDNoDerivativeKickOnFirstSample(t *testing.T) {
	pid := NewPID(PIDGains{Kd: 1})
	if got := pid.Update(100, 1e-3); got != 0 {
		t.Fatalf("first-sample D output = %v, want 0", got)
	}
}

func TestPIDDerivativeFilterSuppressesQuantisationNoise(t *testing.T) {
	// Alternating +-1 count of encoder noise (1.57 mrad) must produce far
	// less derivative output with the filter than without.
	noiseStep := 2 * math.Pi / 4000
	run := func(rc float64) float64 {
		pid := NewPID(PIDGains{Kd: 0.028, DerivRC: rc})
		worst := 0.0
		for i := 0; i < 200; i++ {
			err := 0.0
			if i%2 == 0 {
				err = noiseStep
			}
			out := math.Abs(pid.Update(err, 1e-3))
			if out > worst {
				worst = out
			}
		}
		return worst
	}
	unfiltered := run(0)
	filtered := run(0.008)
	if filtered > unfiltered/4 {
		t.Fatalf("filter too weak: %v vs %v unfiltered", filtered, unfiltered)
	}
}

func TestPIDReset(t *testing.T) {
	pid := NewPID(PIDGains{Kp: 1, Ki: 10, Kd: 0.1, IntegralClamp: 1})
	pid.Update(1, 1e-3)
	pid.Update(2, 1e-3)
	pid.Reset()
	if pid.Integral() != 0 {
		t.Fatal("Reset left integral")
	}
	if got := pid.Update(0, 1e-3); got != 0 {
		t.Fatalf("output after reset with zero error = %v", got)
	}
}

// testHarness builds a controller over a capture chain with a primed
// feedback frame.
type testHarness struct {
	ctrl   *Controller
	frames [][]byte
	fb     usb.Feedback
}

func newHarness(t *testing.T) *testHarness {
	t.Helper()
	h := &testHarness{}
	chain := interpose.NewChain(func(buf []byte) error {
		h.frames = append(h.frames, append([]byte(nil), buf...))
		return nil
	})
	ctrl, err := NewController(Config{}, chain)
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl = ctrl

	// Prime feedback at a mid-workspace pose.
	bank := motor.DefaultBank()
	tr := kinematics.DefaultTransmission()
	mp := tr.ToMotor(kinematics.DefaultLimits().Center())
	for i := 0; i < kinematics.NumJoints; i++ {
		h.fb.Encoder[i] = bank[i].EncoderCounts(mp[i])
	}
	return h
}

// tickN runs n cycles with the same input.
func (h *testHarness) tickN(in Input, n int) Output {
	var out Output
	for i := 0; i < n; i++ {
		out = h.ctrl.Tick(in, h.fb, false)
	}
	return out
}

func TestControllerPowerUpInEStop(t *testing.T) {
	h := newHarness(t)
	out := h.tickN(Input{}, 1)
	if out.State != statemachine.EStop {
		t.Fatalf("state = %v", out.State)
	}
	if out.DAC != ([usb.NumChannels]int16{}) {
		t.Fatalf("E-STOP emitted nonzero DACs: %v", out.DAC)
	}
}

func TestControllerStartBeginsHoming(t *testing.T) {
	h := newHarness(t)
	h.tickN(Input{}, 5)
	out := h.tickN(Input{StartButton: true}, 1)
	if out.State != statemachine.Init {
		t.Fatalf("state after start = %v", out.State)
	}
	// Homing completes after HomingDuration (default 2 s = 2000 ticks).
	out = h.tickN(Input{}, 2100)
	if out.State != statemachine.PedalUp {
		t.Fatalf("state after homing = %v", out.State)
	}
	if got, want := out.JposD, h.ctrl.HomePose(); got != want {
		t.Fatalf("post-homing setpoint %v, want home %v", got, want)
	}
}

func (h *testHarness) toPedalDown(t *testing.T) {
	t.Helper()
	h.tickN(Input{StartButton: true}, 1)
	h.tickN(Input{}, 2100)
	out := h.tickN(Input{PedalDown: true}, 1)
	if out.State != statemachine.PedalDown {
		t.Fatalf("state = %v, want Pedal Down", out.State)
	}
}

func TestControllerTeleopIntegratesDeltas(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	before := h.ctrl.DesiredJoints()
	tipBefore := kinematics.Forward(before)
	// 100 ticks of +0.01 mm X per tick = +1 mm total.
	out := h.tickN(Input{PedalDown: true, Delta: mathx.Vec3{X: 1e-5}}, 100)
	tipAfter := kinematics.Forward(out.JposD)
	moved := tipAfter.Sub(tipBefore)
	if math.Abs(moved.X-1e-3) > 1e-5 {
		t.Fatalf("tip moved %v in X, want ~1 mm", moved.X)
	}
}

func TestControllerClampsOversizedDelta(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	tipBefore := kinematics.Forward(h.ctrl.DesiredJoints())
	// A single huge 5 cm delta must be clamped to MaxDeltaPerTick (0.5 mm).
	out := h.tickN(Input{PedalDown: true, Delta: mathx.Vec3{X: 0.05}}, 1)
	moved := kinematics.Forward(out.JposD).Sub(tipBefore).Norm()
	if moved > 0.00051 {
		t.Fatalf("single-tick setpoint jump %v m, want <= 0.5 mm", moved)
	}
}

func TestControllerWorkspaceClamp(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	// Push outward in +Z (insertion direction) for a long time; the
	// setpoint must stop at the workspace limit, not run away.
	for i := 0; i < 40000; i++ {
		h.tickN(Input{PedalDown: true, Delta: mathx.Vec3{Z: 5e-6}}, 1)
	}
	lim := kinematics.DefaultLimits()
	if !lim.Contains(h.ctrl.DesiredJoints()) {
		t.Fatalf("setpoint %v escaped the workspace", h.ctrl.DesiredJoints())
	}
}

func TestControllerDACSafetyCheckTripsAndLatches(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	// Forge feedback claiming the motors are far from the setpoint: the
	// PID output then exceeds the DAC threshold and the software check
	// must trip, zero the DACs, and fall to E-STOP.
	h.fb.Encoder[0] += 40000
	out := h.tickN(Input{PedalDown: true}, 1)
	if !out.Unsafe {
		t.Fatal("safety check did not trip")
	}
	if why := out.UnsafeWhy; why.Kind != TripDAC || why.Channel != 0 || why.Limit != 20000 ||
		!strings.HasPrefix(why.String(), "DAC channel 0 value ") {
		t.Fatalf("cause = %+v (%q)", why, why)
	}
	if out.State != statemachine.EStop {
		t.Fatalf("state = %v, want E-STOP", out.State)
	}
	if out.DAC != ([usb.NumChannels]int16{}) {
		t.Fatalf("unsafe cycle emitted DACs %v", out.DAC)
	}
	if h.ctrl.SafetyTrips() != 1 {
		t.Fatalf("SafetyTrips = %d", h.ctrl.SafetyTrips())
	}
}

func TestControllerWatchdogTogglesWhenHealthy(t *testing.T) {
	h := newHarness(t)
	toggles := 0
	last := false
	for i := 0; i < 100; i++ {
		out := h.ctrl.Tick(Input{}, h.fb, false)
		if i > 0 && out.Watchdog != last {
			toggles++
		}
		last = out.Watchdog
	}
	// 100 ticks / 10-tick half-period = ~10 toggles.
	if toggles < 8 || toggles > 12 {
		t.Fatalf("watchdog toggled %d times in 100 ticks", toggles)
	}
}

func TestControllerWatchdogStopsAfterUnsafe(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	h.fb.Encoder[0] += 40000
	h.tickN(Input{PedalDown: true}, 1)
	h.fb.Encoder[0] -= 40000
	// After the trip the watchdog must freeze (that is how the PLC learns).
	first := h.tickN(Input{}, 1).Watchdog
	for i := 0; i < 50; i++ {
		if out := h.tickN(Input{}, 1); out.Watchdog != first {
			t.Fatal("watchdog kept toggling after unsafe command")
		}
	}
}

func TestControllerFramesCarryStateNibble(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	h.frames = nil
	h.tickN(Input{PedalDown: true}, 5)
	for _, f := range h.frames {
		cmd, err := usb.DecodeCommand(f)
		if err != nil {
			t.Fatal(err)
		}
		if cmd.StateNibble != statemachine.PedalDown.Nibble() {
			t.Fatalf("frame nibble = %#x", cmd.StateNibble)
		}
	}
}

func TestControllerPLCEStopForcesEStop(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	out := h.ctrl.Tick(Input{PedalDown: true}, h.fb, true)
	if out.State != statemachine.EStop {
		t.Fatalf("state = %v with PLC E-STOP asserted", out.State)
	}
}

func TestControllerIKFailHoldsPose(t *testing.T) {
	h := newHarness(t)
	h.toPedalDown(t)
	before := h.ctrl.DesiredJoints()
	// Drive toward the remote center: eventually IK fails (unreachable);
	// the controller must hold pose and count the failures, not crash.
	for i := 0; i < 30000; i++ {
		tip := kinematics.Forward(h.ctrl.DesiredJoints())
		h.tickN(Input{PedalDown: true, Delta: tip.Scale(-0.001)}, 1)
	}
	_ = before
	if h.ctrl.IKFails() == 0 {
		t.Skip("IK failure not reached within the workspace clamp; clamped first")
	}
}

func TestNewControllerRejectsNilChain(t *testing.T) {
	if _, err := NewController(Config{}, nil); err == nil {
		t.Fatal("nil chain accepted")
	}
}

func TestNewControllerRejectsBadBank(t *testing.T) {
	bad := motor.DefaultBank()
	bad[1].EncoderCPR = 0
	chain := interpose.NewChain(func([]byte) error { return nil })
	if _, err := NewController(Config{Bank: bad}, chain); err == nil {
		t.Fatal("bad bank accepted")
	}
}
