package dynamics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forFrictionPaths runs f as subtest "packed", with frictionAll's packed
// kernel on (skipped where the CPU lacks it), and as subtest "scalar",
// with it forced off, so both paths stay pinned on hosts that have the
// kernel.
func forFrictionPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := packedFriction
	defer func() { packedFriction = saved }()
	for _, packed := range []bool{true, false} {
		name := "scalar"
		if packed {
			name = "packed"
		}
		t.Run(name, func(t *testing.T) {
			if packed && !saved {
				t.Skip("no packed friction kernel on this CPU")
			}
			packedFriction = packed
			f(t)
		})
	}
}

// frictionEdges are the lane values frictionAll must band exactly as the
// scalar code does: both sides of the polynomial band edge |v| = 5/8·0.02
// and of the saturation edge |v| = 0.4, signed zeros, infinities,
// subnormals, and values inside each band.
func frictionEdges() []float64 {
	var vs []float64
	for _, edge := range []float64{0.0125, math.Sqrt(tanhBandV2), 0.4, 20 / invSmooth} {
		for _, v := range []float64{math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1)} {
			vs = append(vs, v, -v)
		}
	}
	return append(vs,
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072009e-308, -1e-310,
		1e-9, -0.003, 0.05, -0.25, 0.3999, 1.5, -7, 1e300, -math.MaxFloat64,
	)
}

// checkFrictionAll asserts frictionAll(v) equals frictionScalar(v) bit for
// bit in every lane, and returns frictionAll's result.
func checkFrictionAll(t *testing.T, v []float64) []float64 {
	t.Helper()
	got := make([]float64, len(v))
	want := make([]float64, len(v))
	frictionAll(v, got)
	frictionScalar(v, want)
	for l := range v {
		if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
			t.Fatalf("len %d lane %d: frictionAll(%v) = %v (%#x), scalar %v (%#x)",
				len(v), l, v[l], got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
		}
	}
	return got
}

// TestFrictionAllMatchesScalar pins the packed friction pass to the
// scalar banding bit for bit: every edge value at every lane position of
// slices of length 0–9 and 64, and a NaN at every lane position.
func TestFrictionAllMatchesScalar(t *testing.T) {
	edges := frictionEdges()
	forFrictionPaths(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
			v := make([]float64, n)
			for shift := range edges {
				for l := range v {
					v[l] = edges[(l+shift)%len(edges)]
				}
				checkFrictionAll(t, v)
			}
			for nan := 0; nan < n; nan++ {
				for l := range v {
					v[l] = edges[(l*7+nan)%len(edges)]
				}
				v[nan] = math.NaN()
				if got := checkFrictionAll(t, v); !math.IsNaN(got[nan]) {
					t.Fatalf("len %d: NaN lane %d gave %v", n, nan, got[nan])
				}
			}
		}
	})
}

// FuzzBatchFriction feeds frictionAll arbitrary 64-bit patterns, one per
// lane, and asserts the packed pass equals the scalar banding bit for
// bit — and that a NaN lane stays NaN on both.
func FuzzBatchFriction(f *testing.F) {
	seed := func(vs ...float64) []byte {
		b := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
		}
		return b
	}
	edges := frictionEdges()
	f.Add(seed(edges...))
	f.Add(seed(0.001, 0.1, 1, math.NaN(), -0.0125, 0.4, -20, 5))
	f.Add(seed(math.Inf(1), math.Copysign(0, -1), 0.013, -0.39))
	f.Fuzz(func(t *testing.T, data []byte) {
		v := make([]float64, len(data)/8)
		for l := range v {
			v[l] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*l:]))
		}
		got := make([]float64, len(v))
		want := make([]float64, len(v))
		frictionAll(v, got)
		frictionScalar(v, want)
		for l, x := range v {
			if math.IsNaN(x) {
				if !math.IsNaN(got[l]) || !math.IsNaN(want[l]) {
					t.Fatalf("lane %d: NaN gave packed %v, scalar %v", l, got[l], want[l])
				}
				continue
			}
			if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
				t.Fatalf("lane %d: frictionAll(%v) = %v, scalar %v", l, x, got[l], want[l])
			}
		}
	})
}

// tanhMidRoundToEven is tanhMid as it was written before the add-subtract
// rounding: k from math.RoundToEven. It is the oracle for the rewrite.
func tanhMidRoundToEven(x float64) float64 {
	ax := math.Abs(x)
	t := -2 * ax * tanhLog2E
	k := math.RoundToEven(t)
	w := (t - k) * tanhLn2
	p := 2.08767569878681e-09
	p = p*w + 2.505210838544172e-08
	p = p*w + 2.7557319223985888e-07
	p = p*w + 2.755731922398589e-06
	p = p*w + 2.48015873015873e-05
	p = p*w + 1.984126984126984e-04
	p = p*w + 1.3888888888888889e-03
	p = p*w + 8.333333333333333e-03
	p = p*w + 4.1666666666666664e-02
	p = p*w + 1.6666666666666666e-01
	p = p*w + 0.5
	p = p*w + 1
	p = p*w + 1
	s := math.Float64frombits(math.Float64bits(p) + uint64(int64(k))<<52)
	r := 1 - 2*s/(1+s)
	if x < 0 {
		return -r
	}
	return r
}

// TestTanhMidRoundingMatchesRoundToEven pins tanhMid's 1.5·2⁵²
// add-subtract rounding to the math.RoundToEven form it replaced: the
// rounding itself on every half-integer of t's range and its float
// neighbours, and tanhMid bit for bit on a dense sweep of the mid band
// plus random points.
func TestTanhMidRoundingMatchesRoundToEven(t *testing.T) {
	for h := -116; h <= -3; h++ {
		tie := float64(h) / 2
		for _, x := range []float64{math.Nextafter(tie, -60), tie, math.Nextafter(tie, 0)} {
			if got, want := (x+tanhRound)-tanhRound, math.RoundToEven(x); got != want {
				t.Fatalf("round(%v) = %v, math.RoundToEven %v", x, got, want)
			}
		}
	}
	check := func(x float64) {
		if got, want := tanhMid(x), tanhMidRoundToEven(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("tanhMid(%v) = %v, RoundToEven form %v", x, got, want)
		}
	}
	for i := 0; i <= 2_000_000; i++ {
		x := 0.625 + float64(i)*(19.375/2_000_000)
		check(x)
		check(-x)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1_000_000; i++ {
		check((0.625 + 19.375*rng.Float64()) * float64(1-2*rng.Intn(2)))
	}
}

// BenchmarkFrictionAll times one friction pass over a fleet worker's 64
// lanes at fleet-bare's band mix, on each path this CPU has.
func BenchmarkFrictionAll(b *testing.B) {
	xs, _, _ := benchBatchState(64)
	v := make([]float64, 64)
	for l := range v {
		v[l] = xs[l].X[3]
	}
	fr := make([]float64, len(v))
	saved := packedFriction
	defer func() { packedFriction = saved }()
	for _, packed := range []bool{true, false} {
		if packed && !saved {
			continue
		}
		b.Run(fmt.Sprintf("packed=%v", packed), func(b *testing.B) {
			packedFriction = packed
			for i := 0; i < b.N; i++ {
				frictionAll(v, fr)
			}
		})
	}
}
