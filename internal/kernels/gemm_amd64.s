//go:build amd64 && !purego

#include "textflag.h"

// func gemmMicroAVX2(kc int, a, b, c *float32, ldc int, accumulate bool)
//
// The 6×16 micro-kernel of the packed GEMM (contract: gemmMicroGo).  Y0–Y11
// hold the block of C, row r in Y(2r) and Y(2r+1); every reduction step loads
// the 16 floats of B into Y12/Y13, broadcasts each of the 6 floats of A into
// Y14 and adds the rounded products to the accumulators.  VMULPS and VADDPS
// stay separate instructions: a fused multiply-add rounds once where the scalar
// loop rounds twice, and the results must match it bit for bit.  The
// accumulator is the first source of each VADDPS (the last operand but one in
// this syntax), as it is in the scalar ADDSS.
TEXT ·gemmMicroAVX2(SB), NOSPLIT, $0-41
	MOVQ kc+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DI
	MOVQ c+24(FP), R8
	MOVQ ldc+32(FP), BX
	SHLQ $2, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	MOVBLZX accumulate+40(FP), AX
	TESTL AX, AX
	JNZ load
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	JMP step

load:
	VMOVUPS (R8), Y0
	VMOVUPS 32(R8), Y1
	VMOVUPS (R9), Y2
	VMOVUPS 32(R9), Y3
	VMOVUPS (R10), Y4
	VMOVUPS 32(R10), Y5
	VMOVUPS (R11), Y6
	VMOVUPS 32(R11), Y7
	VMOVUPS (R12), Y8
	VMOVUPS 32(R12), Y9
	VMOVUPS (R13), Y10
	VMOVUPS 32(R13), Y11

step:
	VMOVUPS (DI), Y12
	VMOVUPS 32(DI), Y13
	VBROADCASTSS (SI), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y0, Y0
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y1, Y1
	VBROADCASTSS 4(SI), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y2, Y2
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y3, Y3
	VBROADCASTSS 8(SI), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y4, Y4
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y5, Y5
	VBROADCASTSS 12(SI), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y6, Y6
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y7, Y7
	VBROADCASTSS 16(SI), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y8, Y8
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y9, Y9
	VBROADCASTSS 20(SI), Y14
	VMULPS Y12, Y14, Y15
	VADDPS Y15, Y10, Y10
	VMULPS Y13, Y14, Y15
	VADDPS Y15, Y11, Y11
	ADDQ $24, SI
	ADDQ $64, DI
	DECQ CX
	JNZ step

	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	VMOVUPS Y8, (R12)
	VMOVUPS Y9, 32(R12)
	VMOVUPS Y10, (R13)
	VMOVUPS Y11, 32(R13)
	VZEROUPPER
	RET

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
//
// Reads extended control register 0, the set of register states the operating
// system saves.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
