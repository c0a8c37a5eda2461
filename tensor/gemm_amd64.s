#include "textflag.h"

// AVX2 GEMM panel kernels. The contract (order of accumulation, no FMA,
// tails by pull-back) is in the package documentation; gemm_amd64.go
// holds the Go side. All strides arrive in bytes.
//
// Go operand order: VMULPS b, a, d is d = a*b and VADDPS t, acc, acc is
// acc = acc+t, so every accumulator is ((0 + p0) + p1) + ... in k order.

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
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// ROW2 adds one k step of panel row r (its a element at disp(AX)(idx))
// to a 1x16 strip: the b vectors are in Y8, Y9.
#define ROW2(aref, acc0, acc1) \
	VBROADCASTSS aref, Y10 \
	VMULPS       Y8, Y10, Y11 \
	VADDPS       Y11, acc0, acc0 \
	VMULPS       Y9, Y10, Y12 \
	VADDPS       Y12, acc1, acc1

// ROW1 is ROW2 for a 1x8 strip against the b vector bvec.
#define ROW1(aref, bvec, tmp, acc) \
	VBROADCASTSS aref, tmp \
	VMULPS       bvec, tmp, tmp \
	VADDPS       tmp, acc, acc

// func gemmPanelAVX2(dst *float32, ldd uintptr, a *float32, sai, sak uintptr, b *float32, ldb, k, n uintptr)
//
// dst[r][j] = sum over kk of a[r*sai + kk*sak] * b[kk*ldb + j] for the
// four rows r of one panel and every column j < n; n >= 8, k >= 1.
// Columns go 16 at a time (4x2 accumulators); what is left goes 8 at a
// time, the last strip pulled back so that it ends at column n.
TEXT ·gemmPanelAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ sai+24(FP), R10
	LEAQ (R10)(R10*2), R11 // 3*sai
	MOVQ sak+32(FP), R12
	MOVQ b+40(FP), BX
	MOVQ ldb+48(FP), R13
	MOVQ n+64(FP), R9      // columns left

strip16:
	CMPQ R9, $16
	JLT  strip8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ k+56(FP), CX

	PCALIGN $64
loop16:
	// A strip walks down b one cache line per row, a stride the hardware
	// prefetchers lose once it nears a page; 8 rows ahead is worth 1.4x
	// at 4x1024x512 and nothing at the small shapes. A prefetch past the
	// end of b cannot fault.
	PREFETCHT0 (DX)(R13*8)
	VMOVUPS (DX), Y8
	VMOVUPS 32(DX), Y9
	ROW2((AX), Y0, Y1)
	ROW2((AX)(R10*1), Y2, Y3)
	ROW2((AX)(R10*2), Y4, Y5)
	ROW2((AX)(R11*1), Y6, Y7)
	ADDQ R12, AX
	ADDQ R13, DX
	DECQ CX
	JNZ  loop16

	MOVQ    ldd+8(FP), AX
	LEAQ    (DI)(AX*2), DX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(AX*1)
	VMOVUPS Y3, 32(DI)(AX*1)
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	VMOVUPS Y6, (DX)(AX*1)
	VMOVUPS Y7, 32(DX)(AX*1)
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $16, R9
	JMP  strip16

strip8:
	TESTQ R9, R9
	JZ    done
	CMPQ  R9, $8
	JGE   strip8go
	LEAQ  -32(DI)(R9*4), DI // pull back 8-R9 columns
	LEAQ  -32(BX)(R9*4), BX
	MOVQ  $8, R9

strip8go:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, AX
	MOVQ BX, DX
	MOVQ k+56(FP), CX

	PCALIGN $64
loop8:
	VMOVUPS (DX), Y8
	ROW1((AX), Y8, Y4, Y0)
	ROW1((AX)(R10*1), Y8, Y5, Y1)
	ROW1((AX)(R10*2), Y8, Y6, Y2)
	ROW1((AX)(R11*1), Y8, Y7, Y3)
	ADDQ R12, AX
	ADDQ R13, DX
	DECQ CX
	JNZ  loop8

	MOVQ    ldd+8(FP), AX
	LEAQ    (DI)(AX*2), DX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(AX*1)
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, (DX)(AX*1)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $8, R9
	JMP  strip8

done:
	VZEROUPPER
	RET

// LOADT loads b[j][kk..kk+4) of the strip's eight rows j (rows 0-3 from
// DX into the low lanes, rows 4-7 from R8 into the high lanes) and
// transposes each 4x4 lane in registers, leaving the eight-wide rows
// T0..T3 = b[0..8)[kk+0..3] in Y7, Y8, Y5, Y4.
#define LOADT \
	VMOVUPS     (DX), X4 \
	VINSERTF128 $1, (R8), Y4, Y4 \
	VMOVUPS     (DX)(R13*1), X5 \
	VINSERTF128 $1, (R8)(R13*1), Y5, Y5 \
	VMOVUPS     (DX)(R13*2), X6 \
	VINSERTF128 $1, (R8)(R13*2), Y6, Y6 \
	VMOVUPS     (DX)(R12*1), X7 \
	VINSERTF128 $1, (R8)(R12*1), Y7, Y7 \
	VUNPCKLPS   Y5, Y4, Y8 \
	VUNPCKHPS   Y5, Y4, Y4 \
	VUNPCKLPS   Y7, Y6, Y5 \
	VUNPCKHPS   Y7, Y6, Y6 \
	VSHUFPS     $0x44, Y5, Y8, Y7 \
	VSHUFPS     $0xEE, Y5, Y8, Y8 \
	VSHUFPS     $0x44, Y6, Y4, Y5 \
	VSHUFPS     $0xEE, Y6, Y4, Y4

// STEPT adds k step kk+off/4 (its transposed b row in tvec) to the four
// accumulators.
#define STEPT(off, tvec) \
	ROW1(off(AX), tvec, Y9, Y0) \
	ROW1(off(AX)(R10*1), tvec, Y10, Y1) \
	ROW1(off(AX)(R10*2), tvec, Y11, Y2) \
	ROW1(off(AX)(R11*1), tvec, Y12, Y3)

// func gemmPanelTBAVX2(dst *float32, ldd uintptr, a *float32, lda uintptr, b *float32, ldb, k, n uintptr)
//
// dst[r][j] = sum over kk of a[r*lda + kk] * b[j*ldb + kk] for the four
// rows r of one panel and every j < n; n >= 8, k >= 4. Lanes run across
// eight rows j of b at a time, transposed four k steps at a time; the
// last j strip is pulled back to end at n, the last k block is pulled
// back to end at k and enters at its first step not yet added.
TEXT ·gemmPanelTBAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R10
	LEAQ (R10)(R10*2), R11 // 3*lda
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R13
	LEAQ (R13)(R13*2), R12 // 3*ldb
	MOVQ n+56(FP), R9      // columns of dst (rows of b) left

tbstrip:
	CMPQ  R9, $8
	JGE   tbgo
	LEAQ  -32(DI)(R9*4), DI // pull back 8-R9 columns of dst,
	MOVQ  $8, AX            // rows of b
	SUBQ  R9, AX
	IMULQ R13, AX
	SUBQ  AX, BX
	MOVQ  $8, R9

tbgo:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ SI, AX
	MOVQ BX, DX
	LEAQ (BX)(R13*4), R8
	MOVQ k+48(FP), CX
	SUBQ $4, CX

	PCALIGN $64
tbloop:
	LOADT
	STEPT(0, Y7)
	STEPT(4, Y8)
	STEPT(8, Y5)
	STEPT(12, Y4)
	ADDQ $16, AX
	ADDQ $16, DX
	ADDQ $16, R8
	SUBQ $4, CX
	JGE  tbloop

	// CX = (k steps left) - 4, in -4..-1.
	CMPQ CX, $-4
	JEQ  tbstore
	LEAQ (AX)(CX*4), AX
	LEAQ (DX)(CX*4), DX
	LEAQ (R8)(CX*4), R8
	LOADT
	CMPQ CX, $-2
	JEQ  tbstep2
	JLT  tbstep3
	STEPT(4, Y8)

tbstep2:
	STEPT(8, Y5)

tbstep3:
	STEPT(12, Y4)

tbstore:
	MOVQ    ldd+8(FP), AX
	LEAQ    (DI)(AX*2), DX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(AX*1)
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, (DX)(AX*1)
	ADDQ $32, DI
	LEAQ (BX)(R13*8), BX
	SUBQ $8, R9
	JNZ  tbstrip
	VZEROUPPER
	RET
