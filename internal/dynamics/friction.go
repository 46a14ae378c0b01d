package dynamics

// frictionAll writes the smoothed Coulomb sign smoothSign(v[l]) — the
// factor each lane's coulomb constant scales — into fr[l] for every lane
// of v. It is the friction pass of BatchStepper.StepRK4All: one call per
// joint per stage, ahead of the stage's accelG loop.
//
// When packedFriction is set (AVX2 CPUs) the pass runs the four-lane
// kernel frictionAVX2 (friction_amd64.s), which repeats frictionScalar's
// operations in the same order, so each lane's result is bit-identical
// either way. Lanes past the last multiple of four, and any group of four
// holding a NaN, take frictionScalar, so NaN propagation is the scalar
// code's.
//
//ravenlint:noalloc
func frictionAll(v, fr []float64) {
	fr = fr[:len(v)]
	i := 0
	if packedFriction && len(v) >= 4 {
		for {
			i += frictionAVX2(v[i:], fr[i:])
			if len(v)-i < 4 {
				break
			}
			// The kernel stopped at a group holding a NaN.
			frictionScalar(v[i:i+4], fr[i:i+4])
			i += 4
		}
	}
	frictionScalar(v[i:], fr[i:])
}

// frictionScalar is frictionAll's portable path and the packed kernel's
// reference: the friction band branch of Stepper.StepRK4, lane by lane —
// tanhPolyVel inside the smoothing band, tanhTail (saturation or
// tanhMid) beyond it.
//
//ravenlint:noalloc
func frictionScalar(v, fr []float64) {
	fr = fr[:len(v)]
	for l, x := range v {
		u := x * x
		if u < tanhBandV2 {
			fr[l] = tanhPolyVel(x, u)
		} else {
			fr[l] = tanhTail(x * invSmooth)
		}
	}
}
