package dynamics

import (
	"fmt"

	"ravenguard/internal/kinematics"
)

// BatchStepper steps N homogeneous two-mass plants in lockstep through the
// fused RK4/Euler stages. The model has no cross-joint coupling, so the
// batch steps joint lanes, not plants: plant lane l's joint j is joint
// lane k = 3l+j. The state is the plants' [StateDim] vectors back to back,
// so joint lane k owns x[4k:4k+4], joints[k] and tau[k], and a plant
// lane's state is a *[StateDim]float64 (Lane) that loads, stores and swaps
// as one copy.
//
// Each stage kernel is one pass over all 3N joint lanes: independent
// lanes' ~50-cycle stage chains overlap in the out-of-order core the same
// way StepRK4's hand-interleaved joints do, with the interleave width set
// by the batch size. RK4 stages first evaluate every joint lane's friction
// term in one frictionAll pass, which runs packed four lanes per vector on
// AVX2 CPUs (selected once from CPUID) and scalar elsewhere. The Euler
// pass is the same code as Stepper.StepEuler (eulerLanes). One lane's
// arithmetic is exactly the scalar Stepper's — same fusedJoint constants,
// same anchor/friction-band branches, same operation order, on either
// friction path — so a plant lane's output is bit-identical to stepping
// its Stepper directly (pinned by batch_test.go on both paths, and
// friction_test.go for the pass itself).
//
// The intended use is lockstep stepping of many plants or guard models:
// the fleet worker keeps its plants resident in lanes (robot.LaneSet) and
// packs its guards' one-step predictions into a second batch every tick.
// Filling a lane copies the per-joint constants and gravity anchors from
// the lane's own Stepper and reading it back returns the mutated anchors.
//
// All scratch is preallocated at construction: steady-state stepping is
// 0 allocs/op (guarded by the allocation regression tests).
type BatchStepper struct {
	n      int          // active plant lanes
	joints []fusedJoint // [joint lane]
	tau    []float64    // [joint lane]
	x      []float64    // [plant lane][StateDim], joint lane k at [4k:4k+4]

	// RK4 stage scratch, one entry per joint lane. lv1 gathers the link
	// velocities for the first stage's friction pass; fr holds one stage's
	// friction terms between frictionAll and the stage's accelG loop.
	d0, lv1, am1, al1, am2, al2, am3, al3 []float64
	mv2, lv2, mv3, lv3, mv4, lv4          []float64
	fr                                    []float64
}

// NewBatchStepper allocates a batch with room for capacity plant lanes.
// Every scratch slice is a window of one float slab, so construction
// costs a handful of allocations at any width.
func NewBatchStepper(capacity int) (*BatchStepper, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("dynamics: batch capacity %d must be > 0", capacity)
	}
	k := kinematics.NumJoints * capacity
	b := &BatchStepper{
		joints: make([]fusedJoint, k),
		tau:    make([]float64, k),
		x:      make([]float64, StateDim*capacity),
	}
	scratch := []*[]float64{
		&b.d0, &b.lv1, &b.am1, &b.al1, &b.am2, &b.al2, &b.am3, &b.al3,
		&b.mv2, &b.lv2, &b.mv3, &b.lv3, &b.mv4, &b.lv4, &b.fr,
	}
	floats := make([]float64, len(scratch)*k)
	for i, p := range scratch {
		*p = floats[i*k : (i+1)*k : (i+1)*k]
	}
	return b, nil
}

// SetLanes sets the number of active plant lanes for subsequent steps.
func (b *BatchStepper) SetLanes(n int) error {
	if n < 0 || kinematics.NumJoints*n > len(b.joints) {
		return fmt.Errorf("dynamics: %d lanes exceed batch capacity %d", n, len(b.joints)/kinematics.NumJoints)
	}
	b.n = n
	return nil
}

// Lane returns plant lane's state vector, resident in the batch. Callers
// may read and mutate it between steps — the plant's hard-stop and cable
// checks run on it in place.
func (b *BatchStepper) Lane(lane int) *[StateDim]float64 {
	return (*[StateDim]float64)(b.x[StateDim*lane:])
}

// laneJoints returns plant lane's three joint lanes.
func (b *BatchStepper) laneJoints(lane int) *[kinematics.NumJoints]fusedJoint {
	return (*[kinematics.NumJoints]fusedJoint)(b.joints[kinematics.NumJoints*lane:])
}

// laneTau returns plant lane's held torques.
func (b *BatchStepper) laneTau(lane int) *[kinematics.NumJoints]float64 {
	return (*[kinematics.NumJoints]float64)(b.tau[kinematics.NumJoints*lane:])
}

// FillLane loads lane of the batch from this kernel: per-joint constants,
// gravity anchors, and held torque. The lane then steps exactly as this
// Stepper would.
//
//ravenlint:noalloc
func (s *Stepper) FillLane(b *BatchStepper, lane int) {
	*b.laneJoints(lane) = s.joints
	*b.laneTau(lane) = s.tau
}

// ReadLane writes the lane's mutated kernel state (gravity anchors, held
// torque) back into this Stepper, so scalar stepping can resume from where
// the batch left off.
//
//ravenlint:noalloc
func (s *Stepper) ReadLane(b *BatchStepper, lane int) {
	for j, jl := range b.laneJoints(lane) {
		s.joints[j].aLp, s.joints[j].aSin, s.joints[j].aCos = jl.aLp, jl.aSin, jl.aCos
	}
	s.tau = *b.laneTau(lane)
}

// SetLaneTau sets lane's held motor torques (zero-order hold).
func (b *BatchStepper) SetLaneTau(lane int, tau [kinematics.NumJoints]float64) {
	*b.laneTau(lane) = tau
}

// SetLaneX loads lane's state vector.
func (b *BatchStepper) SetLaneX(lane int, x *[StateDim]float64) { *b.Lane(lane) = *x }

// LaneX stores lane's state vector into x.
func (b *BatchStepper) LaneX(lane int, x *[StateDim]float64) { *x = *b.Lane(lane) }

// SwapLanes exchanges the complete per-lane data — joint constants and
// anchors, held torques, state vector — of lanes a and b. Lanes are
// independent, so a swap only relabels which index a plant occupies: every
// lane's subsequent arithmetic is unchanged. The fleet engine uses swaps to
// keep the active (unbraked) lanes a dense prefix window so the stage
// kernels never straddle parked lanes.
//
//ravenlint:noalloc
func (b *BatchStepper) SwapLanes(la, lb int) {
	if la == lb {
		return
	}
	ja, jb := b.laneJoints(la), b.laneJoints(lb)
	*ja, *jb = *jb, *ja
	ta, tb := b.laneTau(la), b.laneTau(lb)
	*ta, *tb = *tb, *ta
	xa, xb := b.Lane(la), b.Lane(lb)
	*xa, *xb = *xb, *xa
}

// StepEulerAll advances every active lane by one explicit Euler step: the
// Stepper.StepEuler kernel over all active joint lanes.
//
//ravenlint:noalloc
func (b *BatchStepper) StepEulerAll(dt float64) {
	k := kinematics.NumJoints * b.n
	eulerLanes(b.joints[:k], b.tau[:k], b.x[:4*k], dt)
}

// eulerLanes advances joint lanes js by one explicit Euler step: joint
// lane k, held torque tau[k], owns x[4k:4k+4]. It is the Euler kernel of
// both Stepper.StepEuler (its three joints) and BatchStepper.StepEulerAll.
//
//ravenlint:noalloc
func eulerLanes(js []fusedJoint, tau, x []float64, dt float64) {
	tau = tau[:len(js)]
	x = x[:4*len(js)]
	for k := range js {
		j := &js[k]
		xs := (*[4]float64)(x[4*k:])
		mp, mv, lp, lv := xs[0], xs[1], xs[2], xs[3]
		d0 := j.anchor(lp)
		u := lv * lv
		var fr float64
		if u < tanhBandV2 {
			fr = tanhPolyVel(lv, u)
		} else {
			fr = tanhTail(lv * invSmooth)
		}
		am, al := j.accelG(tau[k], mp, mv, lp, lv, j.gravAt(d0)+j.coulomb*fr)
		xs[0] = mp + dt*mv
		xs[1] = mv + dt*am
		xs[2] = lp + dt*lv
		xs[3] = lv + dt*al
	}
}

// StepRK4All advances every active lane by one classical RK4 step. The body
// is stage-major, each stage one pass over every active joint lane: a
// frictionAll pass over the stage's link velocities, packed four lanes per
// vector where the CPU allows, then the accelG loop that reads those
// friction terms and forms the next stage's velocities; the last stage's
// loop also combines the step. Per lane the operation order matches
// Stepper.StepRK4 exactly (anchor, friction band, accelG, stage offsets
// through gravAt), so each lane's result is bit-identical to the scalar
// kernel's.
//
//ravenlint:noalloc
func (b *BatchStepper) StepRK4All(dt float64) {
	n := kinematics.NumJoints * b.n
	h2, h6 := dt/2, dt/6
	js, tau, x := b.joints[:n], b.tau[:n], b.x[:4*n]
	d0, fr := b.d0[:n], b.fr[:n]
	am1, al1 := b.am1[:n], b.al1[:n]
	am2, al2 := b.am2[:n], b.al2[:n]
	am3, al3 := b.am3[:n], b.al3[:n]
	lv1 := b.lv1[:n]
	mv2, lv2 := b.mv2[:n], b.lv2[:n]
	mv3, lv3 := b.mv3[:n], b.lv3[:n]
	mv4, lv4 := b.mv4[:n], b.lv4[:n]

	for k := range js {
		xs := (*[4]float64)(x[4*k:])
		d0[k] = js[k].anchor(xs[2])
		lv1[k] = xs[3]
	}
	frictionAll(lv1, fr)
	for k := range js {
		j, xs := &js[k], (*[4]float64)(x[4*k:])
		mp, mv, lp, lv := xs[0], xs[1], xs[2], xs[3]
		am1[k], al1[k] = j.accelG(tau[k], mp, mv, lp, lv, j.gravAt(d0[k])+j.coulomb*fr[k])
		mv2[k], lv2[k] = mv+h2*am1[k], lv+h2*al1[k]
	}

	frictionAll(lv2, fr)
	for k := range js {
		j, xs := &js[k], (*[4]float64)(x[4*k:])
		mp, mv, lp, lv := xs[0], xs[1], xs[2], xs[3]
		am2[k], al2[k] = j.accelG(tau[k], mp+h2*mv, mv2[k], lp+h2*lv, lv2[k], j.gravAt(d0[k]+h2*lv)+j.coulomb*fr[k])
		mv3[k], lv3[k] = mv+h2*am2[k], lv+h2*al2[k]
	}

	frictionAll(lv3, fr)
	for k := range js {
		j, xs := &js[k], (*[4]float64)(x[4*k:])
		mp, mv, lp, lv := xs[0], xs[1], xs[2], xs[3]
		am3[k], al3[k] = j.accelG(tau[k], mp+h2*mv2[k], mv3[k], lp+h2*lv2[k], lv3[k], j.gravAt(d0[k]+h2*lv2[k])+j.coulomb*fr[k])
		mv4[k], lv4[k] = mv+dt*am3[k], lv+dt*al3[k]
	}

	frictionAll(lv4, fr)
	for k := range js {
		j, xs := &js[k], (*[4]float64)(x[4*k:])
		mp, mv, lp, lv := xs[0], xs[1], xs[2], xs[3]
		am4, al4 := j.accelG(tau[k], mp+dt*mv3[k], mv4[k], lp+dt*lv3[k], lv4[k], j.gravAt(d0[k]+dt*lv3[k])+j.coulomb*fr[k])
		xs[0] = mp + h6*(mv+2*mv2[k]+2*mv3[k]+mv4[k])
		xs[2] = lp + h6*(lv+2*lv2[k]+2*lv3[k]+lv4[k])
		xs[1] = mv + h6*(am1[k]+2*am2[k]+2*am3[k]+am4)
		xs[3] = lv + h6*(al1[k]+2*al2[k]+2*al3[k]+al4)
	}
}
