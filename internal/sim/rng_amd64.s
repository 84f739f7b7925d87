#include "textflag.h"

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID              // AX = highest basic leaf
	CMPL AX, $7
	JB   no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV             // XCR0: the OS saves XMM and YMM state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX        // leaf 7 EBX bit 5: AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)
no:
	RET

// func scan4(s *[4][4]uint64, t *[4]uint64, max uint64) (n uint64, hits uint)
// One xoshiro256** step of four lanes per iteration. AVX2 has no 64-bit
// multiply, so ×5 and ×9 are shift+add; a rotate is two shifts and an OR.
TEXT ·scan4(SB), NOSPLIT, $0-40
	MOVQ s+0(FP), DI
	MOVQ t+8(FP), SI
	MOVQ max+16(FP), CX
	VMOVDQU 0(DI), Y0
	VMOVDQU 32(DI), Y1
	VMOVDQU 64(DI), Y2
	VMOVDQU 96(DI), Y3
	VMOVDQU (SI), Y4
	XORQ DX, DX        // n
	XORQ AX, AX        // hits
	TESTQ CX, CX
	JZ   done
loop:
	VPSLLQ $2, Y1, Y5   // u = rotl(s1*5, 7) * 9
	VPADDQ Y1, Y5, Y5
	VPSLLQ $7, Y5, Y6
	VPSRLQ $57, Y5, Y5
	VPOR   Y6, Y5, Y5
	VPSLLQ $3, Y5, Y6
	VPADDQ Y6, Y5, Y5
	VPSRLQ $11, Y5, Y5
	VPCMPGTQ Y5, Y4, Y5 // t > u>>11, signed: both are below 2^53
	VPSLLQ $17, Y1, Y6  // the state step, as in ScanBelow
	VPXOR  Y0, Y2, Y2
	VPXOR  Y1, Y3, Y3
	VPXOR  Y2, Y1, Y1
	VPXOR  Y3, Y0, Y0
	VPXOR  Y6, Y2, Y2
	VPSLLQ $45, Y3, Y6
	VPSRLQ $19, Y3, Y3
	VPOR   Y6, Y3, Y3
	INCQ DX
	VMOVMSKPD Y5, AX
	TESTQ AX, AX
	JNZ  done
	CMPQ DX, CX
	JB   loop
done:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	MOVQ DX, n+24(FP)
	MOVQ AX, hits+32(FP)
	RET
