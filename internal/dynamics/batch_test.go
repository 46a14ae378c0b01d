package dynamics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ravenguard/internal/kinematics"
)

// perturbedParams returns per-lane parameter sets jittered around the
// defaults, mimicking the per-run plant perturbation.
func perturbedParams(seed int64) Params {
	rng := rand.New(rand.NewSource(seed))
	p := DefaultParams()
	for i := range p.Joints {
		j := &p.Joints[i]
		s := func(v float64) float64 { return v * (1 + 0.03*(2*rng.Float64()-1)) }
		j.MotorInertia = s(j.MotorInertia)
		j.CableStiffness = s(j.CableStiffness)
		j.LinkInertia = s(j.LinkInertia)
		j.Coulomb = s(j.Coulomb)
		j.GravConst = s(j.GravConst)
	}
	return p
}

// laneSample is one lane's state vector and held torque at the start of a
// step.
type laneSample struct {
	x   [StateDim]float64
	tau [kinematics.NumJoints]float64
}

// driveBoth steps a scalar Stepper and one batch lane through the same
// torque program and asserts bit-identical states after every step. It
// returns the lane's state and torque every 400 steps (FuzzJointLanes'
// seed corpus).
func driveBoth(t testing.TB, rk4 bool, lanes, lane int, seed int64) []laneSample {
	t.Helper()
	var samples []laneSample
	params := make([]Params, lanes)
	for i := range params {
		params[i] = perturbedParams(seed + int64(i))
	}
	scalars := make([]*Stepper, lanes)
	for i := range scalars {
		var err error
		scalars[i], err = NewStepper(params[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	ref, err := NewStepper(params[lane])
	if err != nil {
		t.Fatal(err)
	}
	batch, err := NewBatchStepper(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(seed * 31))
	xs := make([]State, lanes)
	var refX State
	const dt = 50e-6
	for step := 0; step < 4000; step++ {
		// Torques that sweep the joints through re-anchoring distances and
		// both friction-band branches.
		for l := 0; l < lanes; l++ {
			var tau [3]float64
			for j := range tau {
				tau[j] = 0.5 * (2*rng.Float64() - 1)
			}
			scalars[l].SetTorque(tau)
			scalars[l].FillLane(batch, l)
			batch.SetLaneX(l, &xs[l].X)
			if l == lane {
				ref.RestoreCheckpoint(scalars[l].Checkpoint())
				ref.SetTorque(tau)
				if step%400 == 0 {
					samples = append(samples, laneSample{refX.X, tau})
				}
			}
		}
		ref.Step(rk4, &refX.X, dt)
		if rk4 {
			batch.StepRK4All(dt)
		} else {
			batch.StepEulerAll(dt)
		}
		for l := 0; l < lanes; l++ {
			batch.LaneX(l, &xs[l].X)
			scalars[l].ReadLane(batch, l)
		}
		if xs[lane].X != refX.X {
			t.Fatalf("scheme rk4=%v: lane %d diverged from scalar at step %d:\nbatch  %v\nscalar %v",
				rk4, lane, step, xs[lane].X, refX.X)
		}
		if ck, rck := scalars[lane].Checkpoint(), ref.Checkpoint(); ck != rck {
			t.Fatalf("scheme rk4=%v: lane %d anchor state diverged at step %d: %+v vs %+v",
				rk4, lane, step, ck, rck)
		}
	}
	return samples
}

// TestBatchSingleLaneBitIdentical pins the tentpole guarantee: a batch lane
// is bit-identical to the scalar Stepper, for both schemes, at several lane
// positions and batch widths (neighbouring lanes must not perturb it), with
// RK4's friction pass both packed and scalar.
func TestBatchSingleLaneBitIdentical(t *testing.T) {
	forFrictionPaths(t, func(t *testing.T) {
		for _, rk4 := range []bool{true, false} {
			driveBoth(t, rk4, 1, 0, 11)
			driveBoth(t, rk4, 5, 0, 12)
			driveBoth(t, rk4, 5, 2, 13)
			driveBoth(t, rk4, 5, 4, 14)
			driveBoth(t, rk4, 11, 7, 15)
		}
	})
}

// TestBatchSwapLanesBitIdentical pins the guarantee the fleet engine's lane
// moves rest on: interleaving SwapLanes with stepping, with the lane data
// resident in the batch (no per-step repack), leaves every lane's
// trajectory bit-identical to its scalar twin, for both schemes.
func TestBatchSwapLanesBitIdentical(t *testing.T) {
	forFrictionPaths(t, func(t *testing.T) {
		for _, rk4 := range []bool{true, false} {
			testBatchSwapLanes(t, rk4)
		}
	})
}

func testBatchSwapLanes(t *testing.T, rk4 bool) {
	const lanes, dt = 7, 50e-6
	batch, err := NewBatchStepper(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}
	// scalar[l] and refX[l] are the twin of the plant currently in lane l.
	scalar := make([]*Stepper, lanes)
	refX := make([]State, lanes)
	for l := range scalar {
		if scalar[l], err = NewStepper(perturbedParams(40 + int64(l))); err != nil {
			t.Fatal(err)
		}
		scalar[l].FillLane(batch, l)
		batch.SetLaneX(l, &refX[l].X)
	}
	rng := rand.New(rand.NewSource(40))
	step := func(k int) {
		t.Helper()
		for s := 0; s < k; s++ {
			for l := range scalar {
				var tau [kinematics.NumJoints]float64
				for j := range tau {
					tau[j] = 0.5 * (2*rng.Float64() - 1)
				}
				scalar[l].SetTorque(tau)
				batch.SetLaneTau(l, tau)
				scalar[l].Step(rk4, &refX[l].X, dt)
			}
			if rk4 {
				batch.StepRK4All(dt)
			} else {
				batch.StepEulerAll(dt)
			}
		}
		for l := range scalar {
			if got := *batch.Lane(l); got != refX[l].X {
				t.Fatalf("rk4=%v: lane %d diverged from its scalar twin after swaps:\nbatch  %v\nscalar %v", rk4, l, got, refX[l].X)
			}
		}
	}
	swap := func(a, b int) {
		batch.SwapLanes(a, b)
		scalar[a], scalar[b] = scalar[b], scalar[a]
		refX[a], refX[b] = refX[b], refX[a]
	}
	step(200)
	swap(1, 5) // interior lanes
	step(150)
	swap(0, lanes-1) // boundary lanes
	step(150)
	swap(3, 3) // self-swap is a no-op
	swap(6, 2)
	swap(2, 0)
	step(200)
	// Anchors and held torque travel with the lane too.
	for l, s := range scalar {
		want := s.Checkpoint()
		s.ReadLane(batch, l)
		if got := s.Checkpoint(); got != want {
			t.Fatalf("rk4=%v: lane %d kernel state %+v, scalar twin %+v", rk4, l, got, want)
		}
	}
}

// TestBatchStepperAllocs pins that steady-state batch stepping is
// allocation-free, matching the single-lane kernel's budget, on both
// friction paths.
func TestBatchStepperAllocs(t *testing.T) {
	forFrictionPaths(t, testBatchStepperAllocs)
}

func testBatchStepperAllocs(t *testing.T) {
	const lanes = 8
	batch, err := NewBatchStepper(lanes)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		t.Fatal(err)
	}
	steppers := make([]*Stepper, lanes)
	for i := range steppers {
		steppers[i], err = NewStepper(perturbedParams(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		steppers[i].SetTorque([3]float64{0.1, -0.05, 0.2})
		steppers[i].FillLane(batch, i)
		var x State
		batch.SetLaneX(i, &x.X)
	}
	allocs := testing.AllocsPerRun(200, func() {
		batch.StepRK4All(50e-6)
		batch.StepEulerAll(50e-6)
	})
	if allocs != 0 {
		t.Fatalf("batch stepping allocates %v allocs/op, want 0", allocs)
	}
}

// frictionBand classifies a link velocity by the friction band the RK4
// stage evaluates it in: 0 polynomial (|v| < 5/8·0.02), 1 mid, 2
// saturated (|v| >= 0.4).
func frictionBand(v float64) int {
	switch x := v * invSmooth; {
	case v*v < tanhBandV2:
		return 0
	case x >= 20 || x <= -20:
		return 2
	default:
		return 1
	}
}

// benchBandShares are fleet-bare's measured shares of friction
// evaluations per band (polynomial, mid, saturated).
var benchBandShares = [3]float64{0.39, 0.49, 0.12}

// benchBatchState seeds lanes plants (parameters perturbedParams(lane))
// at the workspace centre with link velocities spread across the
// friction bands in benchBandShares, shuffled over (joint, lane) so every
// vector of lanes mixes bands as a fleet's does. Each joint starts in
// steady motion: the motor turns with its link, the cable stretch carries
// gravity plus link damping and friction, and the held torque carries the
// cable plus motor damping, so velocities stay in band between restores.
func benchBatchState(lanes int) (xs []State, taus [][kinematics.NumJoints]float64, bands [][kinematics.NumJoints]int) {
	rng := rand.New(rand.NewSource(7))
	n := lanes * kinematics.NumJoints
	xs = make([]State, lanes)
	taus = make([][kinematics.NumJoints]float64, lanes)
	bands = make([][kinematics.NumJoints]int, lanes)
	centre := kinematics.DefaultLimits().Center()
	for i, k := range rng.Perm(n) {
		l, j := k/kinematics.NumJoints, k%kinematics.NumJoints
		q := (float64(i) + 0.5) / float64(n)
		band, v := 2, 0.6+0.9*rng.Float64()
		if q < benchBandShares[0] {
			band, v = 0, 0.002+0.008*rng.Float64()
		} else if q < benchBandShares[0]+benchBandShares[1] {
			band, v = 1, 0.02*math.Pow(15, rng.Float64())
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		jp := perturbedParams(int64(l)).Joints[j]
		grav := jp.GravConst
		if jp.GravSin {
			grav *= math.Sin(centre[j] + jp.GravPhase)
		}
		cable := grav + jp.LinkDamping*v + jp.Coulomb*math.Tanh(v*invSmooth)
		bands[l][j] = band
		xs[l].X[4*j+2] = centre[j]
		xs[l].X[4*j+3] = v
		xs[l].X[4*j] = (centre[j] + cable/jp.CableStiffness) * jp.Ratio
		xs[l].X[4*j+1] = v * jp.Ratio
		taus[l][j] = jp.MotorDamping*v*jp.Ratio + cable/jp.Ratio
	}
	return xs, taus, bands
}

// benchBatch times StepRK4All over lanes plants whose link velocities sit
// in fleet-bare's friction band mix. The plants decelerate, so every
// benchRestore steps the seeded state is loaded again (inside the timed
// loop; it costs a few ns per lane against a step's ~µs); the run fails
// if any joint has left its seeded band by the end.
func benchBatch(b *testing.B, lanes int) {
	const benchRestore = 1024 // ~5600 steps pass before the first lane leaves its band
	batch, err := NewBatchStepper(lanes)
	if err != nil {
		b.Fatal(err)
	}
	if err := batch.SetLanes(lanes); err != nil {
		b.Fatal(err)
	}
	xs, taus, bands := benchBatchState(lanes)
	for i := 0; i < lanes; i++ {
		s, err := NewStepper(perturbedParams(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		s.SetTorque(taus[i])
		s.FillLane(batch, i)
	}
	restore := func() {
		for i := range xs {
			batch.SetLaneX(i, &xs[i].X)
		}
	}
	restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%benchRestore == 0 {
			restore()
		}
		batch.StepRK4All(50e-6)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lanes), "ns/lane")
	for l := 0; l < lanes; l++ {
		for j := 0; j < kinematics.NumJoints; j++ {
			if v := batch.Lane(l)[4*j+3]; frictionBand(v) != bands[l][j] {
				b.Fatalf("lane %d joint %d drifted from friction band %d to %d (v=%g)", l, j, bands[l][j], frictionBand(v), v)
			}
		}
	}
}

// BenchmarkBatchStepRK4 runs the batch at a campaign cohort's width (3
// plant lanes, one per sweep value: 9 joint lanes, 8 of them in packed
// friction vectors) and a fleet worker's (64 plant lanes, 192 joint
// lanes). ns/lane is per plant lane.
func BenchmarkBatchStepRK4(b *testing.B) {
	for _, lanes := range []int{3, 64} {
		b.Run(fmt.Sprintf("lanes%d", lanes), func(b *testing.B) {
			benchBatch(b, lanes)
		})
	}
}

// sameBits reports whether a and b are the same float64 bit for bit, or
// both NaN (a NaN's payload may depend on operand order).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// FuzzJointLanes places one plant with an arbitrary 64-bit state vector
// and torques at an arbitrary lane of a 5-plant batch with seeded
// neighbours, and asserts that two RK4 steps of the lane — the first
// anchoring fresh, the second from that anchor — and its anchors equal
// the hand-interleaved StepRK4's bit for bit, or are NaN on both, on every
// friction path the CPU has.
func FuzzJointLanes(f *testing.F) {
	const lanes, dt = 5, 50e-6
	add := func(lane uint8, s laneSample) {
		b := make([]byte, 0, 8*(StateDim+kinematics.NumJoints))
		for _, v := range append(s.x[:], s.tau[:]...) {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		f.Add(lane, b)
	}
	for i, s := range driveBoth(f, true, lanes, 2, 13) {
		add(uint8(i), s)
	}
	add(4, laneSample{x: [StateDim]float64{2: math.NaN(), 7: math.Inf(1), 11: 0.3}})

	// The neighbours: seeded plants mid-motion.
	rng := rand.New(rand.NewSource(17))
	var nbX [lanes]State
	var nbTau [lanes][kinematics.NumJoints]float64
	for l := range nbX {
		for c := range nbX[l].X {
			nbX[l].X[c] = 2*rng.Float64() - 1
		}
		for j := range nbTau[l] {
			nbTau[l][j] = 2*rng.Float64() - 1
		}
	}

	f.Fuzz(func(t *testing.T, laneByte uint8, data []byte) {
		var in laneSample
		for c := 0; c < StateDim+kinematics.NumJoints && 8*c+8 <= len(data); c++ {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data[8*c:]))
			if c < StateDim {
				in.x[c] = v
			} else {
				in.tau[c-StateDim] = v
			}
		}
		lane := int(laneByte) % lanes
		saved := packedFriction
		defer func() { packedFriction = saved }()
		for _, packed := range []bool{saved, false} {
			packedFriction = packed
			batch, err := NewBatchStepper(lanes)
			if err != nil {
				t.Fatal(err)
			}
			if err := batch.SetLanes(lanes); err != nil {
				t.Fatal(err)
			}
			for l := 0; l < lanes; l++ {
				s, err := NewStepper(perturbedParams(30 + int64(l)))
				if err != nil {
					t.Fatal(err)
				}
				s.SetTorque(nbTau[l])
				s.FillLane(batch, l)
				batch.SetLaneX(l, &nbX[l].X)
			}
			ref, err := NewStepper(perturbedParams(30 + int64(lane)))
			if err != nil {
				t.Fatal(err)
			}
			ref.SetTorque(in.tau)
			ref.FillLane(batch, lane)
			batch.SetLaneX(lane, &in.x)
			refX := in.x
			for step := 0; step < 2; step++ {
				ref.StepRK4(&refX, dt)
				batch.StepRK4All(dt)
				got := *batch.Lane(lane)
				for c := range got {
					if !sameBits(got[c], refX[c]) {
						t.Fatalf("packed=%v lane %d step %d: x[%d] = %v, StepRK4 %v", packed, lane, step, c, got[c], refX[c])
					}
				}
				lk, err := NewStepper(perturbedParams(30 + int64(lane)))
				if err != nil {
					t.Fatal(err)
				}
				lk.ReadLane(batch, lane)
				gc, wc := lk.Checkpoint(), ref.Checkpoint()
				for j := 0; j < kinematics.NumJoints; j++ {
					if !sameBits(gc.Tau[j], wc.Tau[j]) || !sameBits(gc.ALp[j], wc.ALp[j]) ||
						!sameBits(gc.ASin[j], wc.ASin[j]) || !sameBits(gc.ACos[j], wc.ACos[j]) {
						t.Fatalf("packed=%v lane %d step %d: joint %d anchors %+v, StepRK4 %+v", packed, lane, step, j, gc, wc)
					}
				}
			}
		}
	})
}
