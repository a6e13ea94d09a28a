//go:build amd64 && !purego

#include "textflag.h"

// func gemmMicroAVX512(kc int, a0, a1 *float32, b *gemmRows, c *float32, ldc int, accumulate bool)
//
// The 12×16 micro-kernel of the packed GEMM: two adjacent 6-row slabs of A,
// a0 for rows 0–5 of the block and a1 for rows 6–11, times one 16-column
// panel of B (contract: gemmMicroGo, per slab).  Z0–Z11 hold the block of C,
// row r in Z(r); every reduction step loads its row's address from the table
// b into R14, the 16 floats of B there into one ZMM register, and adds each
// row's product to its accumulator with one VFMADD231PS whose A operand is
// an embedded broadcast of the slab's float:
// one rounding a step, the fused multiply-add gemmMicroGo emulates bit for
// bit.  Rows r and r+6 of C share a base register, the second at 6·ldc floats
// past it.  The loop takes two steps a pass (an odd kc ends with one), which
// keeps each accumulator's order.
TEXT ·gemmMicroAVX512(SB), NOSPLIT, $0-49
	MOVQ kc+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DX
	MOVQ b+24(FP), DI
	MOVQ c+32(FP), R8
	MOVQ ldc+40(FP), BX
	SHLQ $2, BX
	LEAQ (R8)(BX*1), R9
	LEAQ (R9)(BX*1), R10
	LEAQ (R10)(BX*1), R11
	LEAQ (R11)(BX*1), R12
	LEAQ (R12)(BX*1), R13
	LEAQ (BX)(BX*2), AX
	SHLQ $1, AX
	MOVBLZX accumulate+48(FP), BX
	TESTL BX, BX
	JNZ load
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	JMP step

load:
	VMOVUPS (R8), Z0
	VMOVUPS (R9), Z1
	VMOVUPS (R10), Z2
	VMOVUPS (R11), Z3
	VMOVUPS (R12), Z4
	VMOVUPS (R13), Z5
	VMOVUPS (R8)(AX*1), Z6
	VMOVUPS (R9)(AX*1), Z7
	VMOVUPS (R10)(AX*1), Z8
	VMOVUPS (R11)(AX*1), Z9
	VMOVUPS (R12)(AX*1), Z10
	VMOVUPS (R13)(AX*1), Z11

step:
	MOVQ CX, BX
	SHRQ $1, BX
	JZ tail

pair:
	MOVQ 0(DI), R14
	VMOVUPS 0(R14), Z12
	VFMADD231PS.BCST 0(SI), Z12, Z0
	VFMADD231PS.BCST 4(SI), Z12, Z1
	VFMADD231PS.BCST 8(SI), Z12, Z2
	VFMADD231PS.BCST 12(SI), Z12, Z3
	VFMADD231PS.BCST 16(SI), Z12, Z4
	VFMADD231PS.BCST 20(SI), Z12, Z5
	VFMADD231PS.BCST 0(DX), Z12, Z6
	VFMADD231PS.BCST 4(DX), Z12, Z7
	VFMADD231PS.BCST 8(DX), Z12, Z8
	VFMADD231PS.BCST 12(DX), Z12, Z9
	VFMADD231PS.BCST 16(DX), Z12, Z10
	VFMADD231PS.BCST 20(DX), Z12, Z11
	MOVQ 8(DI), R14
	VMOVUPS 0(R14), Z13
	VFMADD231PS.BCST 24(SI), Z13, Z0
	VFMADD231PS.BCST 28(SI), Z13, Z1
	VFMADD231PS.BCST 32(SI), Z13, Z2
	VFMADD231PS.BCST 36(SI), Z13, Z3
	VFMADD231PS.BCST 40(SI), Z13, Z4
	VFMADD231PS.BCST 44(SI), Z13, Z5
	VFMADD231PS.BCST 24(DX), Z13, Z6
	VFMADD231PS.BCST 28(DX), Z13, Z7
	VFMADD231PS.BCST 32(DX), Z13, Z8
	VFMADD231PS.BCST 36(DX), Z13, Z9
	VFMADD231PS.BCST 40(DX), Z13, Z10
	VFMADD231PS.BCST 44(DX), Z13, Z11
	ADDQ $48, SI
	ADDQ $48, DX
	ADDQ $16, DI
	DECQ BX
	JNZ pair

tail:
	TESTQ $1, CX
	JZ store
	MOVQ 0(DI), R14
	VMOVUPS 0(R14), Z12
	VFMADD231PS.BCST 0(SI), Z12, Z0
	VFMADD231PS.BCST 4(SI), Z12, Z1
	VFMADD231PS.BCST 8(SI), Z12, Z2
	VFMADD231PS.BCST 12(SI), Z12, Z3
	VFMADD231PS.BCST 16(SI), Z12, Z4
	VFMADD231PS.BCST 20(SI), Z12, Z5
	VFMADD231PS.BCST 0(DX), Z12, Z6
	VFMADD231PS.BCST 4(DX), Z12, Z7
	VFMADD231PS.BCST 8(DX), Z12, Z8
	VFMADD231PS.BCST 12(DX), Z12, Z9
	VFMADD231PS.BCST 16(DX), Z12, Z10
	VFMADD231PS.BCST 20(DX), Z12, Z11

store:
	VMOVUPS Z0, (R8)
	VMOVUPS Z1, (R9)
	VMOVUPS Z2, (R10)
	VMOVUPS Z3, (R11)
	VMOVUPS Z4, (R12)
	VMOVUPS Z5, (R13)
	VMOVUPS Z6, (R8)(AX*1)
	VMOVUPS Z7, (R9)(AX*1)
	VMOVUPS Z8, (R10)(AX*1)
	VMOVUPS Z9, (R11)(AX*1)
	VMOVUPS Z10, (R12)(AX*1)
	VMOVUPS Z11, (R13)(AX*1)
	VZEROUPPER
	RET
