//go:build amd64 && !purego

#include "textflag.h"

// func cpuFeatures() (avx2, evex bool)
//
// AVX2 is usable when CPUID reports AVX (leaf 1 ECX bit 28) and OSXSAVE
// (bit 27), the OS saves the xmm and ymm state (XCR0 bits 1 and 2), and
// CPUID leaf 7 reports AVX2 (EBX bit 5). The certified pass (evex) needs
// that and FMA (leaf 1 ECX bit 12), AVX-512F and AVX-512VL (leaf 7 EBX
// bits 16 and 31), and the OS saving the opmask, ZMM_Hi256 and Hi16_ZMM
// state (XCR0 bits 5–7): its ymm16–31 and k registers live there.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB $0, avx2+0(FP)
	MOVB $0, evex+1(FP)

	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  done

	MOVL $1, AX
	MOVL $0, CX
	CPUID
	MOVL CX, R8 // leaf 1 ECX, for FMA below
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  done

	MOVL $0, CX
	XGETBV
	MOVL AX, R9 // XCR0, for the AVX-512 state below
	ANDL $6, AX
	CMPL AX, $6
	JNE  done

	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX
	JZ    done
	MOVB  $1, avx2+0(FP)

	ANDL $0x80010000, BX
	CMPL BX, $0x80010000
	JNE  done
	ANDL $0x1000, R8
	JZ   done
	ANDL $0xE0, R9
	CMPL R9, $0xE0
	JNE  done
	MOVB $1, evex+1(FP)

done:
	RET
