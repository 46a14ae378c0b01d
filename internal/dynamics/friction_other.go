//go:build !amd64

package dynamics

// packedFriction is false off amd64, where frictionAll always runs
// frictionScalar.
var packedFriction = false

// frictionAVX2 is never called off amd64; it processes no lanes.
func frictionAVX2(v, fr []float64) int { return 0 }
