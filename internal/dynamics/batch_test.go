package dynamics

import (
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

// driveBoth steps a scalar Stepper and one batch lane through the same
// torque program and asserts bit-identical states after every step.
func driveBoth(t *testing.T, rk4 bool, lanes, lane int, seed int64) {
	t.Helper()
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
			}
		}
		ref.Step(rk4, &refX.X, dt)
		batch.StepAll(rk4, dt)
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
	for j := 0; j < kinematics.NumJoints; j++ {
		for l, v := range batch.Component(4*j + 3) {
			if got := frictionBand(v); got != bands[l][j] {
				b.Fatalf("lane %d joint %d drifted from friction band %d to %d (v=%g)", l, j, bands[l][j], got, v)
			}
		}
	}
}

// BenchmarkBatchStepRK4 runs the batch at a campaign cohort's width (3
// lanes, one per sweep value) and a fleet worker's (64 lanes).
func BenchmarkBatchStepRK4(b *testing.B) {
	for _, lanes := range []int{3, 64} {
		b.Run(fmt.Sprintf("lanes%d", lanes), func(b *testing.B) {
			benchBatch(b, lanes)
		})
	}
}
