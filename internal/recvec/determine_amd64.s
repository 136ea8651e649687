//go:build amd64 && !purego

#include "textflag.h"

// Every instruction in this file that names a vector register is VEX-
// or EVEX-encoded, none names a zmm register, and VZEROUPPER runs
// before RET: a single legacy-SSE instruction on an xmm register while
// the upper ymm halves are dirty costs a state transition on every call,
// and a 512-bit operation a frequency licence (vex_test.go holds the
// rules).

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

// func determine8AVX2(f, sigma []float64, xs *[8]float64, out *[8]int64)
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

// func determine16AVX2(f, sigma []float64, xs *[16]float64, out *[16]int64)
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

// func determine32EVEX(f, sigma, recip []float64, xs *[WideLanes]float64, out *[WideLanes]int64) (certified bool)
//
// The certified pass: thirty-two lanes in eight chains and no divider.
// Lanes 4i to 4i+3 live in Y(16+i), their destination bits in Y(24+i).
// Per level k, from len(sigma)−1 down to 0, with f[k] in Y8, σ[k] in
// Y9, y = recip[k] = RN(1/σ[k]) in Y10 and the bit 1<<k in Y11, every
// chain computes
//
//	t = x − f[k], q0 = t·y, r0 = t − σ·q0, q1 = q0 + r0·y
//
// (VSUBPD, VMULPD, VFNMADD231PD, VFMADD231PD) and, where x ≥ₛ f[k] (one
// VPCMPQ into a k register), merges q1 into x and ORs the bit into dst.
// Off that path it recomputes t and takes Markstein's step, r1 = t −
// σ·q1 and q2 = q1 + r1·y, and ORs q1 XOR q2 into Y12 (one VPTERNLOGQ),
// for every lane: docs/MATH.md "Certified quotient" proves that on the
// domain fillRecip admits (every f[k] ≥ 2⁻⁵⁰⁰, every σ[k] in [2⁻²⁵⁶,
// 2²⁵⁶]) q1 lies within one ulp of t/σ whenever q1 is finite, so q2 =
// RN(t/σ), and q1 = q2 means q1 is the quotient Determine divides out.
// A NaN q1 may equal its q2 bit for bit, but it leaves x NaN to the end
// of the pass (a positive NaN is taken again and stays NaN, a negative
// one is never taken again), so the pass also fails if any x ends NaN.
// It returns whether Y12 stayed zero and no x is NaN; if not, out is
// garbage and the caller recomputes the pass on the VDIVPD kernels,
// which read only xs. An untaken lane's quotient is never used, so
// certifying it too can only send a pass back, and on a draw in [0,
// total) it passes: its t, down to −f[k], lies in the domain as well.
//
// The take predicate is the VDIVPD kernels' less two terms. On that
// domain f[k] > 0, so x ≥ₛ f[k] already fails ±0, negatives and
// negative NaNs; a positive NaN or +Inf passes it, but then t is NaN or
// +Inf and q1 is NaN. The chains issue in two groups of four, each
// group stage by stage, with t in Y0–Y3 and q in Y4–Y7. Every register
// is ymm and EVEX-encoded where it must be (k masks, ymm16–31 and
// VPTERNLOGQ need AVX-512F and VL); no zmm register is named, so no
// 512-bit frequency licence is taken.
TEXT ·determine32EVEX(SB), NOSPLIT, $0-89
	MOVQ f_base+0(FP), SI
	MOVQ sigma_base+24(FP), DI
	MOVQ sigma_len+32(FP), CX
	MOVQ recip_base+48(FP), R8
	MOVQ xs+72(FP), AX
	MOVQ out+80(FP), DX

	VMOVUPD 0x00(AX), Y16
	VMOVUPD 0x20(AX), Y17
	VMOVUPD 0x40(AX), Y18
	VMOVUPD 0x60(AX), Y19
	VMOVUPD 0x80(AX), Y20
	VMOVUPD 0xa0(AX), Y21
	VMOVUPD 0xc0(AX), Y22
	VMOVUPD 0xe0(AX), Y23
	VPXORQ  Y24, Y24, Y24
	VPXORQ  Y25, Y25, Y25
	VPXORQ  Y26, Y26, Y26
	VPXORQ  Y27, Y27, Y27
	VPXORQ  Y28, Y28, Y28
	VPXORQ  Y29, Y29, Y29
	VPXORQ  Y30, Y30, Y30
	VPXORQ  Y31, Y31, Y31
	VPXOR   Y12, Y12, Y12      // q1 XOR q2, ORed over every lane and level
	MOVQ    $1, BX
	SHLQ    CX, BX
	VMOVQ   BX, X11
	VPBROADCASTQ X11, Y11      // 1 << levels, shifted right once per level

	TESTQ CX, CX
	JZ    done32

loop32:
	DECQ   CX
	VPSRLQ $1, Y11, Y11
	VBROADCASTSD (SI)(CX*8), Y8  // f[k]
	VBROADCASTSD (DI)(CX*8), Y9  // σ[k]
	VBROADCASTSD (R8)(CX*8), Y10 // y = RN(1/σ[k])

	// Chains 0–3, lanes 0–15.
	VPCMPQ       $5, Y8, Y16, K1           // take: x ≥ₛ f[k]
	VPCMPQ       $5, Y8, Y17, K2
	VPCMPQ       $5, Y8, Y18, K3
	VPCMPQ       $5, Y8, Y19, K4
	VSUBPD       Y8, Y16, Y0               // t
	VSUBPD       Y8, Y17, Y1
	VSUBPD       Y8, Y18, Y2
	VSUBPD       Y8, Y19, Y3
	VMULPD       Y10, Y0, Y4               // q0 = t·y
	VMULPD       Y10, Y1, Y5
	VMULPD       Y10, Y2, Y6
	VMULPD       Y10, Y3, Y7
	VFNMADD231PD Y9, Y4, Y0                // r0 = t − σ·q0
	VFNMADD231PD Y9, Y5, Y1
	VFNMADD231PD Y9, Y6, Y2
	VFNMADD231PD Y9, Y7, Y3
	VFMADD231PD  Y10, Y0, Y4               // q1 = q0 + r0·y
	VFMADD231PD  Y10, Y1, Y5
	VFMADD231PD  Y10, Y2, Y6
	VFMADD231PD  Y10, Y3, Y7
	VSUBPD       Y8, Y16, Y0               // t again
	VSUBPD       Y8, Y17, Y1
	VSUBPD       Y8, Y18, Y2
	VSUBPD       Y8, Y19, Y3
	VFNMADD231PD Y9, Y4, Y0                // r1 = t − σ·q1
	VFNMADD231PD Y9, Y5, Y1
	VFNMADD231PD Y9, Y6, Y2
	VFNMADD231PD Y9, Y7, Y3
	VFMADD132PD  Y10, Y4, Y0               // q2 = q1 + r1·y
	VFMADD132PD  Y10, Y5, Y1
	VFMADD132PD  Y10, Y6, Y2
	VFMADD132PD  Y10, Y7, Y3
	VPTERNLOGQ   $0xF6, Y0, Y4, Y12        // Y12 |= q1 XOR q2
	VPTERNLOGQ   $0xF6, Y1, Y5, Y12
	VPTERNLOGQ   $0xF6, Y2, Y6, Y12
	VPTERNLOGQ   $0xF6, Y3, Y7, Y12
	VMOVAPD      Y4, K1, Y16               // x = q1 where taken
	VMOVAPD      Y5, K2, Y17
	VMOVAPD      Y6, K3, Y18
	VMOVAPD      Y7, K4, Y19
	VPORQ        Y11, Y24, K1, Y24         // dst |= bit where taken
	VPORQ        Y11, Y25, K2, Y25
	VPORQ        Y11, Y26, K3, Y26
	VPORQ        Y11, Y27, K4, Y27

	// Chains 4–7, lanes 16–31.
	VPCMPQ       $5, Y8, Y20, K1           // take: x ≥ₛ f[k]
	VPCMPQ       $5, Y8, Y21, K2
	VPCMPQ       $5, Y8, Y22, K3
	VPCMPQ       $5, Y8, Y23, K4
	VSUBPD       Y8, Y20, Y0               // t
	VSUBPD       Y8, Y21, Y1
	VSUBPD       Y8, Y22, Y2
	VSUBPD       Y8, Y23, Y3
	VMULPD       Y10, Y0, Y4               // q0 = t·y
	VMULPD       Y10, Y1, Y5
	VMULPD       Y10, Y2, Y6
	VMULPD       Y10, Y3, Y7
	VFNMADD231PD Y9, Y4, Y0                // r0 = t − σ·q0
	VFNMADD231PD Y9, Y5, Y1
	VFNMADD231PD Y9, Y6, Y2
	VFNMADD231PD Y9, Y7, Y3
	VFMADD231PD  Y10, Y0, Y4               // q1 = q0 + r0·y
	VFMADD231PD  Y10, Y1, Y5
	VFMADD231PD  Y10, Y2, Y6
	VFMADD231PD  Y10, Y3, Y7
	VSUBPD       Y8, Y20, Y0               // t again
	VSUBPD       Y8, Y21, Y1
	VSUBPD       Y8, Y22, Y2
	VSUBPD       Y8, Y23, Y3
	VFNMADD231PD Y9, Y4, Y0                // r1 = t − σ·q1
	VFNMADD231PD Y9, Y5, Y1
	VFNMADD231PD Y9, Y6, Y2
	VFNMADD231PD Y9, Y7, Y3
	VFMADD132PD  Y10, Y4, Y0               // q2 = q1 + r1·y
	VFMADD132PD  Y10, Y5, Y1
	VFMADD132PD  Y10, Y6, Y2
	VFMADD132PD  Y10, Y7, Y3
	VPTERNLOGQ   $0xF6, Y0, Y4, Y12        // Y12 |= q1 XOR q2
	VPTERNLOGQ   $0xF6, Y1, Y5, Y12
	VPTERNLOGQ   $0xF6, Y2, Y6, Y12
	VPTERNLOGQ   $0xF6, Y3, Y7, Y12
	VMOVAPD      Y4, K1, Y20               // x = q1 where taken
	VMOVAPD      Y5, K2, Y21
	VMOVAPD      Y6, K3, Y22
	VMOVAPD      Y7, K4, Y23
	VPORQ        Y11, Y28, K1, Y28         // dst |= bit where taken
	VPORQ        Y11, Y29, K2, Y29
	VPORQ        Y11, Y30, K3, Y30
	VPORQ        Y11, Y31, K4, Y31

	TESTQ CX, CX
	JNZ   loop32

done32:
	VMOVDQU64 Y24, 0x00(DX)
	VMOVDQU64 Y25, 0x20(DX)
	VMOVDQU64 Y26, 0x40(DX)
	VMOVDQU64 Y27, 0x60(DX)
	VMOVDQU64 Y28, 0x80(DX)
	VMOVDQU64 Y29, 0xa0(DX)
	VMOVDQU64 Y30, 0xc0(DX)
	VMOVDQU64 Y31, 0xe0(DX)
	VPTESTMQ  Y12, Y12, K5        // lanes where some q1 ≠ q2
	VCMPPD    $3, Y16, Y16, K1  // x unordered: NaN
	KORW      K1, K5, K5
	VCMPPD    $3, Y17, Y17, K2
	KORW      K2, K5, K5
	VCMPPD    $3, Y18, Y18, K3
	KORW      K3, K5, K5
	VCMPPD    $3, Y19, Y19, K4
	KORW      K4, K5, K5
	VCMPPD    $3, Y20, Y20, K1
	KORW      K1, K5, K5
	VCMPPD    $3, Y21, Y21, K2
	KORW      K2, K5, K5
	VCMPPD    $3, Y22, Y22, K3
	KORW      K3, K5, K5
	VCMPPD    $3, Y23, Y23, K4
	KORW      K4, K5, K5
	KORTESTW  K5, K5
	SETEQ     certified+88(FP)
	VZEROUPPER
	RET
