#include "textflag.h"

// AVX2 Col2im for stride-1 convolutions whose output rows are as wide as
// the input's (conv.go: sameRows). The contract is Col2im's: every pixel
// receives its taps' contributions in (kh, kw) order, each one float32
// add. Lanes run across eight consecutive pixels of one channel plane;
// each keeps its pixel's sum in a register over all taps and is stored
// once, so a lane computes exactly the loop's chain of adds onto that
// pixel. For the pixel at row iy, column ix, tap (kh, kw) reads output
// position (oy, ox) = (iy + padH − kh, ix + padW − kw) of its column
// row, which lies at a fixed offset from the pixel's own index; lanes
// where it falls outside the output (padding) are masked off: their
// loads are not made and their sums kept. The last vector of a plane is
// masked to the pixels left.
//
// Go operand order: VPCMPGTD b, a, d is d = a > b (signed int32 lanes);
// VMASKMOVPS m, mask, d loads and VMASKMOVPS s, mask, m stores the lanes
// whose mask sign bit is set; VBLENDVPS m, b, a, d is d = m ? b : a.
//
// Registers: Y0 the sums, Y3 and Y4 the lanes' oy and ox for the tap,
// Y5 the pixels-left mask, Y6 that and oy's range, Y7 −1 in every lane,
// Y9 oh, Y10 w, Y13 and Y14 the lanes' pixel row and column, Y15 the
// lane numbers; Y1, Y2, Y8 scratch. SI points at tap (0, 0)'s element
// for the vector's first pixel (it may lie outside the column row: no
// masked-on lane reads there), R8 at tap (kh, 0)'s, R9 at tap (kh, kw)'s.

// func col2imSameAVX2(dst, src *float32, p0, n uintptr, lanes *[24]int32, w, oh, kh, kw, padH, padW, rowLen, stepX, stepY uintptr)
TEXT ·col2imSameAVX2(SB), NOSPLIT, $0-112
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ padH+72(FP), AX
	IMULQ w+40(FP), AX
	ADDQ padW+80(FP), AX
	ADDQ p0+16(FP), AX
	LEAQ (SI)(AX*4), SI // p0 + padH·w + padW floats on
	MOVQ n+24(FP), CX
	MOVQ lanes+32(FP), AX
	VMOVDQU 0(AX), Y14
	VMOVDQU 32(AX), Y13
	VMOVDQU 64(AX), Y15
	VPBROADCASTD w+40(FP), Y10
	VPBROADCASTD oh+48(FP), Y9
	VPCMPEQD Y7, Y7, Y7

	// R12: from tap (kh, kw) to (kh, kw+1), one column row on and one
	// pixel of shift less. R13: from tap (kh, 0) to (kh+1, 0), kw column
	// rows on and one input row of shift less.
	MOVQ rowLen+88(FP), R12
	SHLQ $2, R12
	MOVQ kw+64(FP), DX
	MOVQ R12, R13
	IMULQ DX, R13
	MOVQ w+40(FP), AX
	SHLQ $2, AX
	SUBQ AX, R13
	SUBQ $4, R12
	MOVQ kh+56(FP), BX

	PCALIGN $32
vec:
	VMOVD        CX, X5
	VPBROADCASTD X5, Y5
	VPCMPGTD     Y15, Y5, Y5 // pixels left > lane
	VMASKMOVPS   (DI), Y5, Y0
	VPBROADCASTD padH+72(FP), Y3
	VPADDD       Y13, Y3, Y3
	MOVQ         SI, R8
	MOVQ         BX, R10

khloop:
	VPCMPGTD     Y7, Y3, Y6 // oy > −1
	VPCMPGTD     Y3, Y9, Y8 // oh > oy
	VPAND        Y8, Y6, Y6
	VPAND        Y5, Y6, Y6
	VPBROADCASTD padW+80(FP), Y4
	VPADDD       Y14, Y4, Y4
	MOVQ         R8, R9
	MOVQ         DX, R11

kwloop:
	VPCMPGTD   Y7, Y4, Y8 // ox > −1
	VPCMPGTD   Y4, Y10, Y1 // w > ox
	VPAND      Y1, Y8, Y8
	VPAND      Y6, Y8, Y8
	VMASKMOVPS (R9), Y8, Y1
	VADDPS     Y1, Y0, Y2
	VBLENDVPS  Y8, Y2, Y0, Y0
	VPADDD     Y7, Y4, Y4 // ox − 1 for the next kw
	ADDQ       R12, R9
	DECQ       R11
	JNZ        kwloop

	VPADDD Y7, Y3, Y3 // oy − 1 for the next kh
	ADDQ   R13, R8
	DECQ   R10
	JNZ    khloop

	VMASKMOVPS Y0, Y5, (DI)

	// Eight pixels on: the column by 8 mod w, the row by 8 / w, and a
	// column that reaches w wraps to the next row.
	VPBROADCASTD stepX+96(FP), Y1
	VPADDD       Y1, Y14, Y14
	VPBROADCASTD stepY+104(FP), Y1
	VPADDD       Y1, Y13, Y13
	VPCMPGTD     Y14, Y10, Y8 // w > ix: no wrap
	VPANDN       Y10, Y8, Y2
	VPSUBD       Y2, Y14, Y14
	VPANDN       Y7, Y8, Y2
	VPSUBD       Y2, Y13, Y13

	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JGT  vec

	VZEROUPPER
	RET
