//go:build amd64 && !purego

#include "textflag.h"

// func fcMicroAVX2(steps int, a *float32, rows *[fcMR]int, sa int, b *float32, sb int, acc *float64)
//
// The 8×4 fully-connected micro-kernel (contract: fcMicro).  Y0–Y7 hold the
// block's eight rows of acc (fcPlaneLanes = 64 float64 apart), four lanes
// each; row r's scalars are at a[rows[r] + s·sa] (the offsets in AX, BX,
// R9–R14), the lanes at b[s·sb + l].  Every step converts the four lanes to
// float64 (Y8), and for each row broadcasts its scalar and converts the
// copies (Y9–Y14) and adds the product with VFMADD231PD.  Broadcasting the
// float32 from memory is a load alone, where VCVTSS2SD + VBROADCASTSD takes
// the shuffle port twice a row: LeNet's fc1 at batch 128 ran 0.89–1.01 ms
// against 1.04–1.27 in alternating runs.  The product of two float32 values
// is exact in float64, so the fused add rounds as the portable body's add
// does.
TEXT ·fcMicroAVX2(SB), NOSPLIT, $0-56
	MOVQ steps+0(FP), CX
	MOVQ a+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ 0(DX), AX
	MOVQ 8(DX), BX
	MOVQ 16(DX), R9
	MOVQ 24(DX), R10
	MOVQ 32(DX), R11
	MOVQ 40(DX), R12
	MOVQ 48(DX), R13
	MOVQ 56(DX), R14
	MOVQ sa+24(FP), DX
	MOVQ b+32(FP), DI
	MOVQ sb+40(FP), R8
	SHLQ $2, DX
	SHLQ $2, R8
	MOVQ acc+48(FP), R15
	VMOVUPD (R15), Y0
	VMOVUPD 512(R15), Y1
	VMOVUPD 1024(R15), Y2
	VMOVUPD 1536(R15), Y3
	VMOVUPD 2048(R15), Y4
	VMOVUPD 2560(R15), Y5
	VMOVUPD 3072(R15), Y6
	VMOVUPD 3584(R15), Y7
	TESTQ CX, CX
	JZ store

step:
	VCVTPS2PD (DI), Y8
	VBROADCASTSS (SI)(AX*4), X9
	VCVTPS2PD X9, Y9
	VFMADD231PD Y8, Y9, Y0
	VBROADCASTSS (SI)(BX*4), X10
	VCVTPS2PD X10, Y10
	VFMADD231PD Y8, Y10, Y1
	VBROADCASTSS (SI)(R9*4), X11
	VCVTPS2PD X11, Y11
	VFMADD231PD Y8, Y11, Y2
	VBROADCASTSS (SI)(R10*4), X12
	VCVTPS2PD X12, Y12
	VFMADD231PD Y8, Y12, Y3
	VBROADCASTSS (SI)(R11*4), X13
	VCVTPS2PD X13, Y13
	VFMADD231PD Y8, Y13, Y4
	VBROADCASTSS (SI)(R12*4), X14
	VCVTPS2PD X14, Y14
	VFMADD231PD Y8, Y14, Y5
	VBROADCASTSS (SI)(R13*4), X9
	VCVTPS2PD X9, Y9
	VFMADD231PD Y8, Y9, Y6
	VBROADCASTSS (SI)(R14*4), X10
	VCVTPS2PD X10, Y10
	VFMADD231PD Y8, Y10, Y7
	ADDQ DX, SI
	ADDQ R8, DI
	DECQ CX
	JNZ step

store:
	VMOVUPD Y0, (R15)
	VMOVUPD Y1, 512(R15)
	VMOVUPD Y2, 1024(R15)
	VMOVUPD Y3, 1536(R15)
	VMOVUPD Y4, 2048(R15)
	VMOVUPD Y5, 2560(R15)
	VMOVUPD Y6, 3072(R15)
	VMOVUPD Y7, 3584(R15)
	VZEROUPPER
	RET
