#include "textflag.h"

// K(r) is row r of frictionK: four copies of one constant.
#define K(r) ·frictionK+(32*r)(SB)

// HORNER(c, x, p) is one Horner step p = p*x + c, as a multiply and a
// separately rounded add: never a fused multiply-add, which would round
// once where the scalar code rounds twice.
#define HORNER(c, x, p) \
	VMULPD x, p, p \
	VADDPD c, p, p

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func frictionAVX2(v, fr []float64) int
//
// Each group of four lanes evaluates all three bands of frictionScalar —
// tanhPolyVel, tanhMid and the ±1 saturation — with the scalar code's
// operations in the scalar code's order, then picks each lane's band by
// mask blend. Only multiplies, adds, subtracts, one divide and exact bit
// operations touch the values, so every lane rounds exactly as the
// scalar code does. A group holding a NaN ends the call unwritten: the
// mid band's exponent arithmetic would turn a NaN into a number.
TEXT ·frictionAVX2(SB), NOSPLIT, $0-56
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	MOVQ fr_base+24(FP), DI
	XORQ AX, AX
	VMOVUPD K(11), Y15 // the sign bit
	VMOVUPD K(4), Y14  // 1

loop:
	CMPQ CX, $4
	JLT  done
	VMOVUPD   (SI), Y0
	VCMPPD    $3, Y0, Y0, Y1 // unordered with itself: NaN
	VMOVMSKPD Y1, BX
	TESTL     BX, BX
	JNZ       done

	// tanhPolyVel(v, u), u = v*v.
	VMULPD Y0, Y0, Y1
	VMULPD K(12), Y1, Y2
	VSUBPD K(13), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K(14), Y2, Y2
	VMULPD Y1, Y2, Y2
	VSUBPD K(15), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K(16), Y2, Y2
	VMULPD Y1, Y2, Y2
	VSUBPD K(17), Y2, Y2
	VMULPD Y1, Y2, Y2
	VADDPD K(18), Y2, Y2
	VMULPD Y2, Y0, Y2

	// tanhMid(x), x = v*invSmooth: t = -2|x|·log2(e), k = t rounded by
	// the 1.5·2⁵² add-subtract, w = (t-k)·ln2, p = 2^(t-k) by Taylor.
	VMULPD  K(1), Y0, Y3
	VANDNPD Y3, Y15, Y4
	VMULPD  K(7), Y4, Y5
	VMULPD  K(8), Y5, Y5
	VADDPD  K(9), Y5, Y6
	VSUBPD  K(9), Y6, Y7
	VSUBPD  Y7, Y5, Y8
	VMULPD  K(10), Y8, Y8
	VMULPD  K(19), Y8, Y9
	VADDPD  K(20), Y9, Y9
	HORNER(K(21), Y8, Y9)
	HORNER(K(22), Y8, Y9)
	HORNER(K(23), Y8, Y9)
	HORNER(K(24), Y8, Y9)
	HORNER(K(25), Y8, Y9)
	HORNER(K(26), Y8, Y9)
	HORNER(K(27), Y8, Y9)
	HORNER(K(28), Y8, Y9)
	HORNER(K(29), Y8, Y9)
	HORNER(Y14, Y8, Y9)
	HORNER(Y14, Y8, Y9)

	// s = p·2^k: k's integer value is the low bits of t + 1.5·2⁵² minus
	// those of 1.5·2⁵² (both share one exponent), added to p's exponent.
	VPSUBQ K(9), Y6, Y10
	VPSLLQ $52, Y10, Y10
	VPADDQ Y10, Y9, Y9

	// r = 1 - 2s/(1+s), negated for x < 0.
	VMULPD K(6), Y9, Y11
	VADDPD Y14, Y9, Y9
	VDIVPD Y9, Y11, Y11
	VSUBPD Y11, Y14, Y11
	VANDPD Y15, Y3, Y12
	VXORPD Y12, Y11, Y11

	// Saturation and then the polynomial band override the mid result.
	VCMPPD    $0x0d, K(2), Y3, Y12 // x >= 20
	VBLENDVPD Y12, K(4), Y11, Y11
	VCMPPD    $0x02, K(3), Y3, Y12 // x <= -20
	VBLENDVPD Y12, K(5), Y11, Y11
	VCMPPD    $0x01, K(0), Y1, Y12 // u < tanhBandV2
	VBLENDVPD Y12, Y2, Y11, Y11
	VMOVUPD   Y11, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	ADDQ $4, AX
	JMP  loop

done:
	VZEROUPPER
	MOVQ AX, ret+48(FP)
	RET
