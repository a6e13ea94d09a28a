//go:build amd64 && !purego

#include "textflag.h"

// func maxPoolAVX2(chunks, window int, win *float32, sh, sw int, dst *float32)
//
// Max pooling over chunks runs of 8 unit-stride lanes (contract: maxChunks).
// Each chunk's running maxima stay in Y0 for its whole window: seeded from
// tap (0,0), then every tap in (y, x) order, rows sh floats apart and taps in
// a row sw, is loaded into Y1 and taken with VMAXPS Y0, Y1, Y0.  That is
// Intel's VMAXPS ymm0, ymm1, ymm0, which returns its first source, the tap,
// only where it is greater and the running maximum otherwise (on ties, ±0 and
// NaN in either), so the bits are those of the portable v > best scan.  The
// chunk is stored once.
TEXT ·maxPoolAVX2(SB), NOSPLIT, $0-48
	MOVQ chunks+0(FP), CX
	MOVQ window+8(FP), DX
	MOVQ win+16(FP), SI
	MOVQ sh+24(FP), R8
	MOVQ sw+32(FP), R9
	MOVQ dst+40(FP), DI
	SHLQ $2, R8
	SHLQ $2, R9

chunk:
	VMOVUPS (SI), Y0
	MOVQ SI, R10
	MOVQ DX, R11

row:
	MOVQ R10, R12
	MOVQ DX, R13

tap:
	VMOVUPS (R12), Y1
	VMAXPS Y0, Y1, Y0
	ADDQ R9, R12
	DECQ R13
	JNZ tap
	ADDQ R8, R10
	DECQ R11
	JNZ row
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ chunk
	VZEROUPPER
	RET
