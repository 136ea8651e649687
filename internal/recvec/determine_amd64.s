//go:build amd64 && !purego

#include "textflag.h"

// Every instruction in this file is VEX-encoded and VZEROUPPER runs
// before RET: a single legacy-SSE instruction on an xmm register while
// the upper ymm halves are dirty costs a state transition on every call
// (vex_test.go holds the rule).

// Four lanes of bits(+Inf) and of +0, the memory operands of the
// four-chain kernel, which has no register left to hold them.
DATA posInf<>+0(SB)/8, $0x7FF0000000000000
DATA posInf<>+8(SB)/8, $0x7FF0000000000000
DATA posInf<>+16(SB)/8, $0x7FF0000000000000
DATA posInf<>+24(SB)/8, $0x7FF0000000000000
GLOBL posInf<>(SB), RODATA|NOPTR, $32
DATA posZero<>+0(SB)/8, $0
DATA posZero<>+8(SB)/8, $0
DATA posZero<>+16(SB)/8, $0
DATA posZero<>+24(SB)/8, $0
GLOBL posZero<>(SB), RODATA|NOPTR, $32

// func determine8AVX2(f, sigma []float64, xs *[WideLanes / 2]float64, out *[WideLanes / 2]int64)
//
// Lanes 0–3 live in Y0 (destination bits in Y2), lanes 4–7 in Y1 (Y3):
// two independent divide chains. Per level k, from len(sigma)−1 down to
// 0, each lane computes t = (x − f[k]) / σ[k] and keeps it, and sets bit
// k, exactly when ¬(f[k] >ₛ x) ∧ (x >ₛ 0) ∧ ¬(x >ₛ +Inf) on bit patterns
// as signed integers. That is takeMask's predicate: a negative x, ±0 or
// NaN fails the last two as it fails Determine, and for x in (0, +Inf]
// signed order is float order against f[k] ≥ +0, while an f[k] of −0,
// whose pattern is the least signed integer, is below every such x, as
// x ≥ −0 is true (takeMask clears the sign bit for the same effect).
TEXT ·determine8AVX2(SB), NOSPLIT, $0-64
	MOVQ f_base+0(FP), SI
	MOVQ sigma_base+24(FP), DI
	MOVQ sigma_len+32(FP), CX
	MOVQ xs+48(FP), AX
	MOVQ out+56(FP), DX

	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VPXOR   Y2, Y2, Y2
	VPXOR   Y3, Y3, Y3
	VPXOR   Y10, Y10, Y10      // +0
	MOVQ    $0x7FF0000000000000, BX
	VMOVQ   BX, X4
	VPBROADCASTQ X4, Y4        // bits(+Inf)
	MOVQ    $1, BX
	SHLQ    CX, BX
	VMOVQ   BX, X5
	VPBROADCASTQ X5, Y5        // 1 << levels, shifted right once per level

	TESTQ CX, CX
	JZ    done8

loop8:
	DECQ   CX
	VPSRLQ $1, Y5, Y5
	VBROADCASTSD (SI)(CX*8), Y6 // f[k]
	VBROADCASTSD (DI)(CX*8), Y7 // σ[k]

	VSUBPD Y6, Y0, Y8
	VDIVPD Y7, Y8, Y8           // t, lanes 0–3
	VSUBPD Y6, Y1, Y9
	VDIVPD Y7, Y9, Y9           // t, lanes 4–7

	VPCMPGTQ Y0, Y6, Y11        // f[k] > x
	VPCMPGTQ Y4, Y0, Y12        // x > +Inf
	VPOR     Y12, Y11, Y11
	VPCMPGTQ Y10, Y0, Y12       // x > 0
	VPANDN   Y12, Y11, Y11      // take mask, lanes 0–3
	VBLENDVPD Y11, Y8, Y0, Y0
	VPAND    Y5, Y11, Y11
	VPOR     Y11, Y2, Y2

	VPCMPGTQ Y1, Y6, Y11
	VPCMPGTQ Y4, Y1, Y12
	VPOR     Y12, Y11, Y11
	VPCMPGTQ Y10, Y1, Y12
	VPANDN   Y12, Y11, Y11      // take mask, lanes 4–7
	VBLENDVPD Y11, Y9, Y1, Y1
	VPAND    Y5, Y11, Y11
	VPOR     Y11, Y3, Y3

	TESTQ CX, CX
	JNZ   loop8

done8:
	VMOVDQU Y2, 0(DX)
	VMOVDQU Y3, 32(DX)
	VZEROUPPER
	RET

// func determine16AVX2(f, sigma []float64, xs *[WideLanes]float64, out *[WideLanes]int64)
//
// determine8AVX2's descent in four divide chains, lanes 4i to 4i+3 in
// Yi with their translated values in Y(8+i), so that four VDIVPD are in
// flight per level where two left the divider idle half the time. The
// take predicate is determine8AVX2's, with +Inf and +0 read from memory.
// The destination bits shift in from the top level down, d = 2d − take
// (take is 0 or −1), which needs no per-level bit register: with f[k]
// in Y12, σ[k] in Y13 and mask temporaries in Y14 and Y15 the kernel
// uses all sixteen ymm registers.
TEXT ·determine16AVX2(SB), NOSPLIT, $0-64
	MOVQ f_base+0(FP), SI
	MOVQ sigma_base+24(FP), DI
	MOVQ sigma_len+32(FP), CX
	MOVQ xs+48(FP), AX
	MOVQ out+56(FP), DX

	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VPXOR   Y4, Y4, Y4
	VPXOR   Y5, Y5, Y5
	VPXOR   Y6, Y6, Y6
	VPXOR   Y7, Y7, Y7

	TESTQ CX, CX
	JZ    done16

loop16:
	DECQ CX
	VBROADCASTSD (SI)(CX*8), Y12 // f[k]
	VBROADCASTSD (DI)(CX*8), Y13 // σ[k]

	VSUBPD Y12, Y0, Y8
	VSUBPD Y12, Y1, Y9
	VSUBPD Y12, Y2, Y10
	VSUBPD Y12, Y3, Y11
	VDIVPD Y13, Y8, Y8          // t, lanes 0–3
	VDIVPD Y13, Y9, Y9          // t, lanes 4–7
	VDIVPD Y13, Y10, Y10        // t, lanes 8–11
	VDIVPD Y13, Y11, Y11        // t, lanes 12–15

	VPCMPGTQ Y0, Y12, Y14           // f[k] > x
	VPCMPGTQ posInf<>(SB), Y0, Y15  // x > +Inf
	VPOR     Y15, Y14, Y14
	VPCMPGTQ posZero<>(SB), Y0, Y15 // x > 0
	VPANDN   Y15, Y14, Y14          // take mask, lanes 0–3
	VBLENDVPD Y14, Y8, Y0, Y0
	VPSLLQ   $1, Y4, Y4
	VPSUBQ   Y14, Y4, Y4

	VPCMPGTQ Y1, Y12, Y14
	VPCMPGTQ posInf<>(SB), Y1, Y15
	VPOR     Y15, Y14, Y14
	VPCMPGTQ posZero<>(SB), Y1, Y15
	VPANDN   Y15, Y14, Y14          // take mask, lanes 4–7
	VBLENDVPD Y14, Y9, Y1, Y1
	VPSLLQ   $1, Y5, Y5
	VPSUBQ   Y14, Y5, Y5

	VPCMPGTQ Y2, Y12, Y14
	VPCMPGTQ posInf<>(SB), Y2, Y15
	VPOR     Y15, Y14, Y14
	VPCMPGTQ posZero<>(SB), Y2, Y15
	VPANDN   Y15, Y14, Y14          // take mask, lanes 8–11
	VBLENDVPD Y14, Y10, Y2, Y2
	VPSLLQ   $1, Y6, Y6
	VPSUBQ   Y14, Y6, Y6

	VPCMPGTQ Y3, Y12, Y14
	VPCMPGTQ posInf<>(SB), Y3, Y15
	VPOR     Y15, Y14, Y14
	VPCMPGTQ posZero<>(SB), Y3, Y15
	VPANDN   Y15, Y14, Y14          // take mask, lanes 12–15
	VBLENDVPD Y14, Y11, Y3, Y3
	VPSLLQ   $1, Y7, Y7
	VPSUBQ   Y14, Y7, Y7

	TESTQ CX, CX
	JNZ   loop16

done16:
	VMOVDQU Y4, 0(DX)
	VMOVDQU Y5, 32(DX)
	VMOVDQU Y6, 64(DX)
	VMOVDQU Y7, 96(DX)
	VZEROUPPER
	RET
