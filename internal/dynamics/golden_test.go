package dynamics

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"ravenguard/internal/kinematics"
)

// Frozen kernel digests: FNV-64a over the bits of the state vector and
// the Checkpoint anchors after every step of goldenProgram's seeded torque
// program. The equivalence tests compare two paths against each other;
// these pin both to fixed values, so a change that drifts the scalar and
// batch kernels together still fails. A deliberate numerical change must
// regenerate them and say why.
const (
	goldenEulerDigest = 0x29c04f4fef3513cc
	goldenRK4Digest   = 0x088bafbc3aadee22
	goldenBatchEuler  = 0x8ade277a213f9d8a
	goldenBatchRK4    = 0xef92e2aac91fb39d
)

const goldenPlants = 5

// goldenRun is each scheme's step count and production step size: the
// guard's 1 ms Euler prediction over 2 s, and the plant's 50 µs RK4
// sub-step over 0.5 s.
func goldenRun(rk4 bool) (steps int, dt float64) {
	if rk4 {
		return 10000, 50e-6
	}
	return 2000, 1e-3
}

// goldenTorque is the seeded torque program: sweeps that carry the joints
// through re-anchoring distances and every friction band.
func goldenTorque(rng *rand.Rand) [kinematics.NumJoints]float64 {
	var tau [kinematics.NumJoints]float64
	for j := range tau {
		tau[j] = 0.6 * (2*rng.Float64() - 1)
	}
	return tau
}

// hashStep folds one step's state vector and kernel anchors into h.
func hashStep(h hash.Hash64, x *[StateDim]float64, ck StepperState) {
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range x {
		put(v)
	}
	for j := 0; j < kinematics.NumJoints; j++ {
		put(ck.Tau[j])
		put(ck.ALp[j])
		put(ck.ASin[j])
		put(ck.ACos[j])
	}
}

// scalarGoldenDigest runs plant 0 of the program on a lone Stepper.
func scalarGoldenDigest(t *testing.T, rk4 bool) uint64 {
	t.Helper()
	s, err := NewStepper(perturbedParams(60))
	if err != nil {
		t.Fatal(err)
	}
	steps, dt := goldenRun(rk4)
	rng := rand.New(rand.NewSource(61))
	var x State
	h := fnv.New64a()
	for step := 0; step < steps; step++ {
		s.SetTorque(goldenTorque(rng))
		s.Step(rk4, &x.X, dt)
		hashStep(h, &x.X, s.Checkpoint())
	}
	return h.Sum64()
}

// batchGoldenDigest runs goldenPlants plants of the program resident in one
// batch, reading every lane back after each step. It fails the fixture if
// the program never reaches some friction band or never re-anchors.
func batchGoldenDigest(t *testing.T, rk4 bool) uint64 {
	t.Helper()
	batch, err := NewBatchStepper(goldenPlants)
	if err != nil {
		t.Fatal(err)
	}
	if err := batch.SetLanes(goldenPlants); err != nil {
		t.Fatal(err)
	}
	steppers := make([]*Stepper, goldenPlants)
	var x State
	for l := range steppers {
		if steppers[l], err = NewStepper(perturbedParams(60 + int64(l))); err != nil {
			t.Fatal(err)
		}
		steppers[l].FillLane(batch, l)
		batch.SetLaneX(l, &x.X)
	}
	steps, dt := goldenRun(rk4)
	rng := rand.New(rand.NewSource(61))
	h := fnv.New64a()
	var bands [3]int
	reanchors := 0
	for step := 0; step < steps; step++ {
		for l := range steppers {
			batch.SetLaneTau(l, goldenTorque(rng))
		}
		if rk4 {
			batch.StepRK4All(dt)
		} else {
			batch.StepEulerAll(dt)
		}
		for l, s := range steppers {
			before := s.Checkpoint().ALp
			batch.LaneX(l, &x.X)
			s.ReadLane(batch, l)
			ck := s.Checkpoint()
			hashStep(h, &x.X, ck)
			for j := 0; j < kinematics.NumJoints; j++ {
				bands[frictionBand(x.X[4*j+3])]++
				if ck.ALp[j] != before[j] {
					reanchors++
				}
			}
		}
	}
	if bands[0] == 0 || bands[1] == 0 || bands[2] == 0 || reanchors < 4*goldenPlants*kinematics.NumJoints {
		t.Fatalf("rk4=%v: weak fixture: friction bands %v, %d re-anchors", rk4, bands, reanchors)
	}
	return h.Sum64()
}

// TestGoldenKernelDigests pins the scalar and batch kernels, both schemes,
// to frozen digests on both friction paths.
func TestGoldenKernelDigests(t *testing.T) {
	forFrictionPaths(t, func(t *testing.T) {
		for _, c := range []struct {
			name string
			got  uint64
			want uint64
		}{
			{"StepEuler", scalarGoldenDigest(t, false), goldenEulerDigest},
			{"StepRK4", scalarGoldenDigest(t, true), goldenRK4Digest},
			{"StepEulerAll", batchGoldenDigest(t, false), goldenBatchEuler},
			{"StepRK4All", batchGoldenDigest(t, true), goldenBatchRK4},
		} {
			if c.got != c.want {
				t.Errorf("%s digest %#016x, frozen %#016x", c.name, c.got, c.want)
			}
		}
	})
}
