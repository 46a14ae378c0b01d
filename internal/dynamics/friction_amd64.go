package dynamics

import "math"

// packedFriction selects frictionAll's AVX2 kernel. It is set once, from
// CPUID and XGETBV, and nothing else selects the path; tests flip it to
// pin the scalar path on hosts that have the kernel.
var packedFriction = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM register state across context switches (CPUID.1:ECX.OSXSAVE and
// .AVX, XCR0 bits 1 and 2, CPUID.7.0:EBX.AVX2).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// frictionK holds the packed kernel's constants, four copies each so the
// kernel can use them as 256-bit memory operands: tanhPolyVel's,
// tanhTail's and tanhMid's literals and constants, in the order the
// kernel first uses them. friction_amd64.s addresses row r at byte
// offset 32·r; the comments give r.
var frictionK = [...][4]float64{
	splat4(tanhBandV2),             // 0: the polynomial band, on v²
	splat4(invSmooth),              // 1
	splat4(20),                     // 2: saturation
	splat4(-20),                    // 3
	splat4(1),                      // 4
	splat4(-1),                     // 5
	splat4(2),                      // 6
	splat4(-2),                     // 7
	splat4(tanhLog2E),              // 8
	splat4(tanhRound),              // 9
	splat4(tanhLn2),                // 10
	splat4(math.Copysign(0, -1)),   // 11: the sign bit
	splat4(2.600474304296876e+19),  // 12: tanhPolyVel, highest order first
	splat4(3.984975920707703e+16),  // 13 (subtracted)
	splat4(42368662216806.414),     // 14
	splat4(42144443625.64386),      // 15 (subtracted)
	splat4(41666201.69052964),      // 16
	splat4(41666.66219649304),      // 17 (subtracted)
	splat4(49.999999992955466),     // 18
	splat4(2.08767569878681e-09),   // 19: tanhMid's Taylor terms, 1/12! first
	splat4(2.505210838544172e-08),  // 20
	splat4(2.7557319223985888e-07), // 21
	splat4(2.755731922398589e-06),  // 22
	splat4(2.48015873015873e-05),   // 23
	splat4(1.984126984126984e-04),  // 24
	splat4(1.3888888888888889e-03), // 25
	splat4(8.333333333333333e-03),  // 26
	splat4(4.1666666666666664e-02), // 27
	splat4(1.6666666666666666e-01), // 28
	splat4(0.5),                    // 29; then 1, 1 from row 4
}

func splat4(x float64) [4]float64 { return [4]float64{x, x, x, x} }

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register XCR0.
func xgetbv() (eax, edx uint32)

// frictionAVX2 writes frictionScalar's results for v's lanes into fr,
// four lanes per vector, and returns how many lanes it wrote: a multiple
// of four, stopping early at the first group of four that holds a NaN.
// len(fr) must be at least len(v).
//
//go:noescape
func frictionAVX2(v, fr []float64) int
