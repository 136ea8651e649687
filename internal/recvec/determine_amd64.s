//go:build amd64 && !purego

#include "textflag.h"

// Every instruction in this file is VEX-encoded and VZEROUPPER runs
// before RET: a single legacy-SSE instruction on an xmm register while
// the upper ymm halves are dirty costs a state transition on every call
// (vex_test.go holds the rule).

// func determineWideAVX2(f, sigma []float64, xs *[WideLanes]float64, out *[WideLanes]int64)
//
// Lanes 0–3 live in Y0 (destination bits in Y2), lanes 4–7 in Y1 (Y3):
// two independent divide chains, so the divider never waits on the
// latency of one. Per level k, from len(sigma)−1 down to 0, each lane
// computes t = (x − f[k]) / σ[k] and keeps it, and sets bit k, exactly
// when ¬(f[k] >ₛ x) ∧ (x >ₛ 0) ∧ ¬(x >ₛ +Inf) on bit patterns as signed
// integers. That is takeMask's predicate: a negative x, ±0 or NaN fails
// the last two as it fails Determine, and for x in (0, +Inf] signed order
// is float order against f[k] ≥ +0, while an f[k] of −0, whose pattern
// is the least signed integer, is below every such x, as x ≥ −0 is true
// (takeMask clears the sign bit for the same effect).
TEXT ·determineWideAVX2(SB), NOSPLIT, $0-64
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
	JZ    done

loop:
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
	JNZ   loop

done:
	VMOVDQU Y2, 0(DX)
	VMOVDQU Y3, 32(DX)
	VZEROUPPER
	RET
