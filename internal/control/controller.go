package control

import (
	"fmt"
	"math"

	"ravenguard/internal/interpose"
	"ravenguard/internal/kinematics"
	"ravenguard/internal/mathx"
	"ravenguard/internal/motor"
	"ravenguard/internal/statemachine"
	"ravenguard/internal/usb"
	"ravenguard/internal/wrist"
)

// Period is the control loop period: the RAVEN II operational cycle is
// 1 millisecond.
const Period = 1e-3

// WatchdogHalfPeriodTicks is how many control cycles pass between watchdog
// bit toggles (10 ms half-period square wave).
const WatchdogHalfPeriodTicks = 10

// Input is one cycle's operator command, already parsed from the ITP
// packet: an incremental Cartesian motion plus pedal and button states.
// This is the data attack scenario A corrupts after receipt.
type Input struct {
	// Delta is the desired incremental end-effector motion this cycle,
	// meters.
	Delta mathx.Vec3
	// OriDelta is the desired incremental instrument-joint motion this
	// cycle (roll, wrist pitch, grasp), radians.
	OriDelta [3]float64
	// PedalDown is the foot-pedal state.
	PedalDown bool
	// StartButton is the physical start button (takes the robot out of
	// E-STOP).
	StartButton bool
	// EStopButton is the physical emergency-stop button.
	EStopButton bool
}

// Config parameterises the controller.
type Config struct {
	// Gains per positioning motor. Zero selects DefaultGains.
	Gains [kinematics.NumJoints]PIDGains
	// DACLimits are the software safety thresholds on |DAC| per motor
	// channel; the paper's "pre-defined thresholds [that] ensure the
	// motors and arm joints do not move beyond their safety limits".
	// Zero selects per-channel defaults sitting ~15-30% above the worst
	// fault-free command on each axis.
	DACLimits [kinematics.NumJoints]int16
	// Limits is the joint-space workspace. Zero selects the default.
	Limits kinematics.Limits
	// Bank holds the motor channel constants.
	Bank motor.Bank
	// Trans is the nominal transmission used for unit conversion.
	Trans kinematics.Transmission
	// HomingDuration is the length of the Init ramp in seconds (default 2).
	HomingDuration float64
	// MaxDeltaPerTick clamps the per-cycle Cartesian increment (meters);
	// incremental teleoperation protocols bound each step (default 0.5 mm).
	MaxDeltaPerTick float64
	// TrigDrift, when non-nil, returns the additive error corrupting the
	// control software's trigonometric evaluations at time t (seconds) —
	// the fault point of the Table I math-library attack. nil means an
	// uncompromised math library.
	TrigDrift func(t float64) float64
	// SafetyChecksOff disables the built-in software safety checks. Used
	// ONLY by the evaluation harness to measure an attack's counterfactual
	// physical impact (the ground truth detectors are scored against) —
	// never in a deployed configuration.
	SafetyChecksOff bool
}

// DefaultGains returns PID gains tuned for the default dynamics: a ~10 Hz
// position loop per motor, gravity held mostly by feedforward with the
// integrator trimming model mismatch.
func DefaultGains() [kinematics.NumJoints]PIDGains {
	return [kinematics.NumJoints]PIDGains{
		kinematics.Shoulder: {Kp: 0.25, Ki: 2, Kd: 0.004, IntegralClamp: 0.06, DerivRC: 0.008},
		kinematics.Elbow:    {Kp: 0.25, Ki: 2, Kd: 0.004, IntegralClamp: 0.06, DerivRC: 0.008},
		kinematics.Insert:   {Kp: 0.03, Ki: 0.3, Kd: 0.0004, IntegralClamp: 0.02, DerivRC: 0.008},
	}
}

func (c *Config) applyDefaults() {
	if c.Gains == ([kinematics.NumJoints]PIDGains{}) {
		c.Gains = DefaultGains()
	}
	if c.DACLimits == ([kinematics.NumJoints]int16{}) {
		c.DACLimits = [kinematics.NumJoints]int16{20000, 13000, 9000}
	}
	zero := kinematics.Limits{}
	if c.Limits == zero {
		c.Limits = kinematics.DefaultLimits()
	}
	if c.Bank == (motor.Bank{}) {
		c.Bank = motor.DefaultBank()
	}
	if c.Trans == (kinematics.Transmission{}) {
		c.Trans = kinematics.DefaultTransmission()
	}
	if c.HomingDuration == 0 {
		c.HomingDuration = 2.0
	}
	if c.MaxDeltaPerTick == 0 {
		c.MaxDeltaPerTick = 0.0005
	}
}

// Output is everything one control cycle produced, for observers
// (experiment harness, detectors, logs).
type Output struct {
	State      statemachine.State
	DAC        [usb.NumChannels]int16
	Unsafe     bool       // software safety check failed this cycle
	UnsafeWhy  SafetyTrip // cause, when Unsafe
	Watchdog   bool       // watchdog bit value written
	JposD      kinematics.JointPos
	MposD      kinematics.MotorPos
	JposEst    kinematics.JointPos // estimate from encoder feedback
	MposEst    kinematics.MotorPos
	TipDesired mathx.Vec3
	Wrote      bool // a command frame was pushed down the write chain
}

// TripKind names which of RAVEN's software safety checks failed.
type TripKind uint8

const (
	TripNone      TripKind = iota
	TripDAC                // a DAC value exceeded its channel's threshold
	TripWorkspace          // the desired joints left the workspace
)

// SafetyTrip is the cause of a failed software safety check. It is a
// plain value, formatted only by String, so a control cycle that trips
// does not allocate.
type SafetyTrip struct {
	Kind    TripKind
	Channel int                 // DAC channel, for TripDAC
	Value   int16               // commanded DAC value, for TripDAC
	Limit   int16               // the channel's threshold, for TripDAC
	Joints  kinematics.JointPos // desired joints, for TripWorkspace
}

// String describes the trip, or returns "" for TripNone.
func (t SafetyTrip) String() string {
	switch t.Kind {
	case TripDAC:
		return fmt.Sprintf("DAC channel %d value %d exceeds threshold %d", t.Channel, t.Value, t.Limit)
	case TripWorkspace:
		return fmt.Sprintf("desired joints %v outside workspace", t.Joints)
	}
	return ""
}

// Controller is the RAVEN control software node. Not safe for concurrent
// use; the simulation loop owns it.
type Controller struct {
	cfg   Config //ravenlint:snapshot-ignore configuration, fixed after NewController
	sm    *statemachine.Machine
	pids  [kinematics.NumJoints]*PID
	chain *interpose.Chain //ravenlint:snapshot-ignore write-chain wiring; chain stats captured by the rig

	jposD     kinematics.JointPos
	havePose  bool
	homeFrom  kinematics.JointPos
	homeT     float64
	seq       byte
	tick      int
	watchdog  bool
	unsafeHit bool // latched: stop petting the watchdog

	grav     GravityModel //ravenlint:snapshot-ignore gravity model installed during assembly, fixed during a run
	gravSet  bool         //ravenlint:snapshot-ignore set with grav during assembly
	ikFails  int
	wristCtl *wrist.Controller
	wristSet bool // wrist setpoint initialised from feedback

	// safetyTrips counts DAC-limit and joint-limit violations the software
	// checks caught: this is the RAVEN baseline detector's alarm signal.
	safetyTrips int

	// sanitized counts non-finite operator-input fields zeroed before use;
	// a NaN delta integrated into the setpoint would poison the whole
	// kinematic chain, so corrupt inputs degrade to "no motion" instead.
	sanitized int

	// frameBuf backs the command frame handed to the write chain each
	// tick; keeping it on the struct keeps Tick allocation-free.
	frameBuf [usb.CommandLen]byte //ravenlint:snapshot-ignore per-tick scratch, fully rewritten before use

	tip tipMemo //ravenlint:snapshot-ignore pure memo of kinematics.Forward(jposD), key-checked before every use
}

// tipMemo caches the forward-kinematics solution at the current setpoint,
// keyed on the exact jposD bits. Tick needs the desired tip every cycle
// and updateTeleop needs it again at the pre-update setpoint, but the
// setpoint only changes while the machine is driving — E-STOP and
// Pedal-Up hold cycles, and the post-update evaluation in teleop, hit the
// memo instead of re-running the trigonometric chain. Valid across
// snapshot restore without being captured: the key comparison re-derives
// or reuses the identical Forward value either way.
type tipMemo struct {
	key   kinematics.JointPos
	val   mathx.Vec3
	valid bool
}

// tipForward returns kinematics.Forward(c.jposD) through the memo.
//
//ravenlint:noalloc
func (c *Controller) tipForward() mathx.Vec3 {
	if !c.tip.valid || c.jposD != c.tip.key {
		c.tip.key = c.jposD
		c.tip.val = kinematics.Forward(c.jposD)
		c.tip.valid = true
	}
	return c.tip.val
}

// NewController builds the control node writing frames into chain.
func NewController(cfg Config, chain *interpose.Chain) (*Controller, error) {
	cfg.applyDefaults()
	if err := cfg.Bank.Validate(); err != nil {
		return nil, fmt.Errorf("control: %w", err)
	}
	if chain == nil {
		return nil, fmt.Errorf("control: nil write chain")
	}
	ctrl := &Controller{
		cfg:      cfg,
		sm:       statemachine.New(),
		chain:    chain,
		wristCtl: wrist.NewController(),
	}
	for i := range ctrl.pids {
		ctrl.pids[i] = NewPID(cfg.Gains[i])
	}
	return ctrl, nil
}

// State exposes the operational state machine's current state.
func (c *Controller) State() statemachine.State { return c.sm.State() }

// SafetyTrips returns how many times the built-in software checks fired.
func (c *Controller) SafetyTrips() int { return c.safetyTrips }

// SanitizedInputs returns how many non-finite operator-input fields were
// zeroed before use.
func (c *Controller) SanitizedInputs() int { return c.sanitized }

// sanitizeInput zeroes non-finite motion fields in place and returns how
// many fields were corrupt. Every transport into the controller is supposed
// to reject non-finite values already (itp.Decode does); this is the last
// line of defense for hooks and fault injectors that bypass the decoders.
func sanitizeInput(in *Input) int {
	n := 0
	if !in.Delta.IsFinite() {
		in.Delta = mathx.Vec3{}
		n++
	}
	for i, v := range in.OriDelta {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			in.OriDelta[i] = 0
			n++
		}
	}
	return n
}

// DesiredJoints returns the current joint-space setpoint.
func (c *Controller) DesiredJoints() kinematics.JointPos { return c.jposD }

// HomePose returns the pose the Init phase drives to.
func (c *Controller) HomePose() kinematics.JointPos { return c.cfg.Limits.Center() }

// GravityModel is the nominal gravity feedforward table: torque on joint i
// is Const*sin(pos+Phase) when Sin, else the constant Const.
type GravityModel struct {
	Const [kinematics.NumJoints]float64
	Phase [kinematics.NumJoints]float64
	Sin   [kinematics.NumJoints]bool
}

// SetGravity installs the nominal gravity model used for feedforward.
func (c *Controller) SetGravity(m GravityModel) { c.grav = m; c.gravSet = true }

// Tick runs one control cycle: consume the operator input, read encoder
// feedback from the board, run the kinematic chain and safety checks, and
// write the command frame down the interposition chain. estopFromPLC forces
// the machine into E-STOP (the PLC latched).
func (c *Controller) Tick(in Input, feedback usb.Feedback, estopFromPLC bool) Output {
	c.tick++
	c.sanitized += sanitizeInput(&in)
	c.driveStateMachine(in, estopFromPLC)

	st := c.sm.State()
	out := Output{State: st}

	// Feedback: encoder counts -> motor positions -> joint estimates.
	var mposEst kinematics.MotorPos
	for i := 0; i < kinematics.NumJoints; i++ {
		mposEst[i] = c.cfg.Bank[i].AngleFromCounts(feedback.Encoder[i])
	}
	jposEst := c.cfg.Trans.ToJoint(mposEst)
	out.MposEst = mposEst
	out.JposEst = jposEst

	if !c.havePose {
		// First cycle: adopt the measured pose as the setpoint so the arm
		// does not lurch at power-on.
		c.jposD = jposEst
		c.havePose = true
	}

	// Desired-pose update by state.
	switch st {
	case statemachine.Init:
		c.updateHoming(jposEst)
	case statemachine.PedalDown:
		c.updateTeleop(in)
	default:
		// E-STOP / Pedal Up: hold the current setpoint.
	}

	out.JposD = c.jposD
	out.TipDesired = c.tipForward()
	mposD := c.cfg.Trans.ToMotor(c.jposD)
	out.MposD = mposD

	// Instrument wrist: decode its encoder channels and track the
	// operator's orientation deltas (Pedal Down only).
	var wristMeas [wrist.NumJoints]float64
	for i := 0; i < wrist.NumJoints; i++ {
		wristMeas[i] = wrist.AngleFromCounts(feedback.Encoder[kinematics.NumJoints+i])
	}
	if !c.wristSet {
		c.wristCtl.SetSetpoint(wristMeas)
		c.wristSet = true
	}
	if st == statemachine.PedalDown {
		c.wristCtl.Track(in.OriDelta)
	}

	// PID per motor plus gravity feedforward; PD servos on the wrist.
	var dac [usb.NumChannels]int16
	driving := st == statemachine.PedalDown || st == statemachine.Init
	if driving {
		for i := 0; i < kinematics.NumJoints; i++ {
			torque := c.pids[i].Update(mposD[i]-mposEst[i], Period)
			torque += c.gravityFeedforward(i)
			dac[i] = c.cfg.Bank[i].TorqueToDAC(torque)
		}
		wristDAC := c.wristCtl.Update(wristMeas, Period)
		for i := 0; i < wrist.NumJoints; i++ {
			dac[kinematics.NumJoints+i] = wristDAC[i]
		}
	} else {
		for i := range c.pids {
			c.pids[i].Reset()
		}
	}

	// --- RAVEN's built-in software safety checks (time of check) ---
	var why SafetyTrip
	if !c.cfg.SafetyChecksOff {
		why = c.safetyCheck(dac)
	}
	if why.Kind != TripNone {
		c.safetyTrips++
		c.unsafeHit = true
		out.Unsafe = true
		out.UnsafeWhy = why
		dac = [usb.NumChannels]int16{} // command zeros
		c.sm.Apply(statemachine.EvEStop)
		st = c.sm.State()
		out.State = st
	}

	// Watchdog: toggle periodically unless an unsafe command latched.
	if !c.unsafeHit && c.tick%WatchdogHalfPeriodTicks == 0 {
		c.watchdog = !c.watchdog
	}
	out.Watchdog = c.watchdog

	// Compose and write the command frame (time of use). Anything living
	// on the write chain — the paper's malicious wrapper, or the
	// dynamic-model guard — sees this frame.
	c.seq++
	cmd := usb.Command{
		StateNibble: st.Nibble(),
		Watchdog:    c.watchdog,
		Seq:         c.seq,
		DAC:         dac,
	}
	c.frameBuf = cmd.Encode()
	if err := c.chain.Write(c.frameBuf[:]); err == nil {
		out.Wrote = true
	}
	out.DAC = dac
	return out
}

// driveStateMachine applies this cycle's events.
func (c *Controller) driveStateMachine(in Input, estopFromPLC bool) {
	if in.EStopButton || estopFromPLC {
		c.sm.Apply(statemachine.EvEStop)
		return
	}
	if in.StartButton && c.sm.State() == statemachine.EStop {
		c.sm.Apply(statemachine.EvStartButton)
		c.homeT = 0
		c.homeFrom = c.jposD
		c.unsafeHit = false
		for i := range c.pids {
			c.pids[i].Reset()
		}
	}
	if c.sm.State() == statemachine.PedalUp && in.PedalDown {
		c.sm.Apply(statemachine.EvPedalPress)
	}
	if c.sm.State() == statemachine.PedalDown && !in.PedalDown {
		c.sm.Apply(statemachine.EvPedalRelease)
	}
}

// updateHoming ramps the setpoint from the power-on pose to the home pose.
func (c *Controller) updateHoming(jposEst kinematics.JointPos) {
	if c.homeT == 0 {
		c.homeFrom = jposEst
	}
	c.homeT += Period
	frac := c.homeT / c.cfg.HomingDuration
	if frac >= 1 {
		c.jposD = c.HomePose()
		c.sm.Apply(statemachine.EvHomingDone)
		return
	}
	// Smoothstep ramp avoids acceleration spikes at the ends.
	s := frac * frac * (3 - 2*frac)
	home := c.HomePose()
	for i := 0; i < kinematics.NumJoints; i++ {
		c.jposD[i] = mathx.Lerp(c.homeFrom[i], home[i], s)
	}
}

// updateTeleop integrates the operator's incremental motion into the
// desired pose, going through IK and clamping to the workspace.
func (c *Controller) updateTeleop(in Input) {
	delta := in.Delta
	if n := delta.Norm(); n > c.cfg.MaxDeltaPerTick {
		delta = delta.Scale(c.cfg.MaxDeltaPerTick / n)
	}
	drift := 0.0
	if c.cfg.TrigDrift != nil {
		drift = c.cfg.TrigDrift(float64(c.tick) * Period)
	}
	// ForwardWithTrigDrift(jp, 0) is Forward(jp) by construction (pinned
	// in kinematics/drift_test.go), so an uncompromised math library can
	// take the memoised tip from the end of the previous cycle.
	var target mathx.Vec3
	if drift == 0 {
		target = c.tipForward().Add(delta)
	} else {
		target = kinematics.ForwardWithTrigDrift(c.jposD, drift).Add(delta)
	}
	jp, err := kinematics.InverseWithTrigDrift(target, drift)
	if err != nil {
		// Unreachable target: hold pose. (The "IK-fail" impact of the
		// sin/cos drift attack in Table I surfaces as a stream of these.)
		c.ikFails++
		return
	}
	c.jposD = c.cfg.Limits.Clamp(jp)
}

// safetyCheck reproduces RAVEN's pre-write checks: DAC magnitude against a
// fixed threshold and the desired joints against the workspace. It
// returns the first failure, or a TripNone trip.
func (c *Controller) safetyCheck(dac [usb.NumChannels]int16) SafetyTrip {
	for i := 0; i < kinematics.NumJoints; i++ {
		if dac[i] > c.cfg.DACLimits[i] || dac[i] < -c.cfg.DACLimits[i] {
			return SafetyTrip{Kind: TripDAC, Channel: i, Value: dac[i], Limit: c.cfg.DACLimits[i]}
		}
	}
	if !c.cfg.Limits.Contains(c.jposD) {
		return SafetyTrip{Kind: TripWorkspace, Joints: c.jposD}
	}
	return SafetyTrip{}
}

// gravityFeedforward computes the nominal gravity-compensation torque for
// motor i at the current setpoint.
func (c *Controller) gravityFeedforward(i int) float64 {
	if !c.gravSet {
		return 0
	}
	g := c.grav.Const[i]
	if c.grav.Sin[i] {
		g = c.grav.Const[i] * math.Sin(c.jposD[i]+c.grav.Phase[i])
	}
	return g / c.cfg.Trans.Ratio[i]
}

// IKFails returns how many teleop cycles failed inverse kinematics.
func (c *Controller) IKFails() int { return c.ikFails }

// State is the controller's mutable state, for checkpoint/restore: the
// setpoint integrator, homing ramp, state machine, PID and wrist-servo
// internals, and the diagnostic counters. Configuration (gains, limits,
// gravity model, TrigDrift) stays with the target controller, so a clean
// fork of an attacked prefix keeps its own uncompromised configuration.
type State struct {
	JposD       kinematics.JointPos
	HavePose    bool
	HomeFrom    kinematics.JointPos
	HomeT       float64
	Seq         byte
	Tick        int
	Watchdog    bool
	UnsafeHit   bool
	IKFails     int
	WristSet    bool
	SafetyTrips int
	Sanitized   int
	SM          statemachine.Machine
	PIDs        [kinematics.NumJoints]PID
	Wrist       wrist.Controller
}

// CaptureState returns the controller's mutable state.
func (c *Controller) CaptureState() State {
	s := State{
		JposD: c.jposD, HavePose: c.havePose, HomeFrom: c.homeFrom, HomeT: c.homeT,
		Seq: c.seq, Tick: c.tick, Watchdog: c.watchdog, UnsafeHit: c.unsafeHit,
		IKFails: c.ikFails, WristSet: c.wristSet,
		SafetyTrips: c.safetyTrips, Sanitized: c.sanitized,
		SM: *c.sm, Wrist: *c.wristCtl,
	}
	for i := range c.pids {
		s.PIDs[i] = *c.pids[i]
	}
	return s
}

// RestoreState rewinds the controller to a captured state.
func (c *Controller) RestoreState(s State) {
	c.jposD, c.havePose, c.homeFrom, c.homeT = s.JposD, s.HavePose, s.HomeFrom, s.HomeT
	c.seq, c.tick, c.watchdog, c.unsafeHit = s.Seq, s.Tick, s.Watchdog, s.UnsafeHit
	c.ikFails, c.wristSet = s.IKFails, s.WristSet
	c.safetyTrips, c.sanitized = s.SafetyTrips, s.Sanitized
	*c.sm = s.SM
	*c.wristCtl = s.Wrist
	for i := range c.pids {
		*c.pids[i] = s.PIDs[i]
	}
}
