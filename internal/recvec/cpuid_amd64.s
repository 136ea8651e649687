//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports AVX (leaf 1 ECX bit 28) and OSXSAVE
// (bit 27), the OS saves the xmm and ymm state (XCR0 bits 1 and 2), and
// CPUID leaf 7 reports AVX2 (EBX bit 5).
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  no

	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no

	MOVL $0, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	MOVL $0, CX
	CPUID
	ANDL $0x20, BX
	JZ   no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
