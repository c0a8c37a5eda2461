#include "textflag.h"

// AVX2 CNN kernels. The contract (per-element operations and their
// order, no FMA) is in cnn.go; cnn_amd64.go holds the Go side and hands
// every kernel a whole number of eight-float vectors, n >= 8. Lanes run
// across output elements, so each lane computes exactly the portable
// loop. The element-wise kernels go 32 elements at a time (four
// independent vectors), then 8 at a time.
//
// Go operand order: VMAXPS b, a, d is d = max(a, b), returning b when
// a > b fails; VCMPPS $p, b, a, d is d = a <p> b; VBLENDVPS m, b, a, d
// is d = m ? b : a per lane (the mask's sign bit); VSUBPS b, a, d is
// d = a-b.

// RELU8 sets the 8 floats at off(DI) to those at off(SI) where they are
// greater than 0, +0 elsewhere. Y15 = +0 is VMAXPS's second source, the
// one it returns on NaN or equal zeros.
#define RELU8(off, X) \
	VMOVUPS off(SI), X \
	VMAXPS  Y15, X, X \
	VMOVUPS X, off(DI)

// func reluAVX2(dst, src *float32, n uintptr)
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y15, Y15, Y15

	PCALIGN $32
relu32:
	CMPQ CX, $32
	JLT  relu8
	RELU8(0, Y0)
	RELU8(32, Y1)
	RELU8(64, Y2)
	RELU8(96, Y3)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
	JMP  relu32

relu8:
	TESTQ CX, CX
	JZ    reludone
	RELU8(0, Y0)
	ADDQ  $32, DI
	ADDQ  $32, SI
	SUBQ  $8, CX
	JMP   relu8

reludone:
	VZEROUPPER
	RET

// RELUGRAD8 sets the 8 floats at off(DI) to those at off(DX) where the
// floats at off(SI) are greater than 0 (0 < x, ordered: false on NaN),
// +0 elsewhere. Y15 = +0.
#define RELUGRAD8(off, X) \
	VCMPPS  $0x11, off(SI), Y15, X \
	VANDPS  off(DX), X, X \
	VMOVUPS X, off(DI)

// func reluGradAVX2(dx, x, dout *float32, n uintptr)
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ   dx+0(FP), DI
	MOVQ   x+8(FP), SI
	MOVQ   dout+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y15, Y15, Y15

	PCALIGN $32
grad32:
	CMPQ CX, $32
	JLT  grad8
	RELUGRAD8(0, Y0)
	RELUGRAD8(32, Y1)
	RELUGRAD8(64, Y2)
	RELUGRAD8(96, Y3)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  grad32

grad8:
	TESTQ CX, CX
	JZ    graddone
	RELUGRAD8(0, Y0)
	ADDQ  $32, DI
	ADDQ  $32, SI
	ADDQ  $32, DX
	SUBQ  $8, CX
	JMP   grad8

graddone:
	VZEROUPPER
	RET

// TAP folds a tap at flat index I (int32 lanes) of the image at SI into
// the running best Y1 and its index Y2: the tap's value is gathered
// from BASE + 4·Y9, BASE being SI moved on by the tap's offset in the
// window and Y9 the first tap's index, and replaces the best where it
// is strictly greater (ordered: never a NaN). Y7 is the gather's mask,
// which the gather clears.
#define TAP(BASE, I) \
	VPCMPEQD   Y7, Y7, Y7 \
	VGATHERDPS Y7, BASE(Y9*4), Y0 \
	VCMPPS     $0x1e, Y1, Y0, Y6 \
	VBLENDVPS  Y6, Y0, Y1, Y1 \
	VBLENDVPS  Y6, I, Y2, Y2

// func maxPool2x2AVX2(dst *float32, argmax *int32, src *float32, n uintptr, lanes *[16]int32, ow, w, stepX, stepO uintptr)
//
// Y8 holds each lane's output column and Y9 the flat index of its first
// tap (lanes[0:8] and lanes[8:16] to start); cnn_amd64.go explains how
// they move on.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         argmax+8(FP), DX
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), CX
	MOVQ         lanes+32(FP), AX
	VMOVDQU      0(AX), Y8
	VMOVDQU      32(AX), Y9
	MOVQ         ow+40(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVQ         w+48(FP), BX
	VMOVD        BX, X11
	VPBROADCASTD X11, Y11
	MOVQ         stepX+56(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12
	MOVQ         stepO+64(FP), AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	MOVL         $0xff800000, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	MOVL         $1, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VPSUBD       Y15, Y10, Y5 // ow−1: a column past it wraps
	LEAQ         (SI)(BX*4), R8 // the window's second row

	PCALIGN $32
pool8:
	// Tap (0, 0): best is the tap where it is greater than −Inf, and
	// the index starts at it either way.
	VPCMPEQD   Y7, Y7, Y7
	VGATHERDPS Y7, (SI)(Y9*4), Y0
	VCMPPS     $0x1e, Y14, Y0, Y6
	VBLENDVPS  Y6, Y0, Y14, Y1
	VMOVDQU    Y9, Y2

	VPADDD Y15, Y9, Y3
	TAP(4(SI), Y3)     // (0, 1)
	VPADDD Y11, Y9, Y3
	TAP((R8), Y3)      // (1, 0)
	VPADDD Y15, Y3, Y3
	TAP(4(R8), Y3)     // (1, 1)

	VMOVUPS Y1, (DI)
	VMOVDQU Y2, (DX)

	VPADDD   Y12, Y8, Y8
	VPADDD   Y13, Y9, Y9
	VPCMPGTD Y5, Y8, Y6
	VPAND    Y10, Y6, Y4
	VPSUBD   Y4, Y8, Y8
	VPAND    Y11, Y6, Y4
	VPADDD   Y4, Y9, Y9

	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX
	JNZ  pool8

	VZEROUPPER
	RET

// The batch-norm kernels take a row of c channel runs of sp floats:
// each run's whole vectors eight at a time, then its last sp%8 floats
// as one vector masked by tailMask (VMASKMOVPS neither reads nor writes
// the lanes past the run; what those lanes compute is dropped), and the
// next channel's coefficients. R8 holds sp%8, and AX the mask for it.

// tailMask<>+32−4r is the mask of the first r lanes.
DATA tailMask<>+0(SB)/4, $0xffffffff
DATA tailMask<>+4(SB)/4, $0xffffffff
DATA tailMask<>+8(SB)/4, $0xffffffff
DATA tailMask<>+12(SB)/4, $0xffffffff
DATA tailMask<>+16(SB)/4, $0xffffffff
DATA tailMask<>+20(SB)/4, $0xffffffff
DATA tailMask<>+24(SB)/4, $0xffffffff
DATA tailMask<>+28(SB)/4, $0xffffffff
DATA tailMask<>+32(SB)/4, $0
DATA tailMask<>+36(SB)/4, $0
DATA tailMask<>+40(SB)/4, $0
DATA tailMask<>+44(SB)/4, $0
DATA tailMask<>+48(SB)/4, $0
DATA tailMask<>+52(SB)/4, $0
DATA tailMask<>+56(SB)/4, $0
DATA tailMask<>+60(SB)/4, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// TAIL_MASK loads the mask of the first sp%8 lanes into Y11 from the
// run length in R9 (clobbered), and sets R8 = sp%8.
#define TAIL_MASK \
	MOVQ    R9, R8 \
	ANDQ    $7, R8 \
	LEAQ    tailMask<>+32(SB), AX \
	SHLQ    $2, R9 \
	ANDQ    $28, R9 \
	SUBQ    R9, AX \
	VMOVDQU (AX), Y11

// BNAPPLY normalises the 8 floats of x in X into H (xhat) and Y (y).
// Y12 = mean, Y13 = inv, Y14 = gamma, Y15 = beta.
#define BNAPPLY(X, H, Y) \
	VSUBPS Y12, X, H \
	VMULPS Y13, H, H \
	VMULPS H, Y14, Y \
	VADDPS Y15, Y, Y

// func batchNormApplyAVX2(y, xhat, x *float32, sp, c uintptr, mean, inv, gamma, beta *float32)
TEXT ·batchNormApplyAVX2(SB), NOSPLIT, $0-72
	MOVQ y+0(FP), DI
	MOVQ xhat+8(FP), DX
	MOVQ x+16(FP), SI
	MOVQ c+32(FP), BX
	MOVQ mean+40(FP), R10
	MOVQ inv+48(FP), R11
	MOVQ gamma+56(FP), R12
	MOVQ beta+64(FP), R13
	MOVQ sp+24(FP), R9
	TAIL_MASK

applych:
	VBROADCASTSS (R10), Y12
	VBROADCASTSS (R11), Y13
	VBROADCASTSS (R12), Y14
	VBROADCASTSS (R13), Y15
	MOVQ         sp+24(FP), CX
	SHRQ         $3, CX
	JZ           applytail

	PCALIGN $32
apply8:
	VMOVUPS (SI), Y0
	BNAPPLY(Y0, Y1, Y2)
	VMOVUPS Y1, (DX)
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, DX
	ADDQ    $32, SI
	DECQ    CX
	JNZ     apply8

applytail:
	TESTQ      R8, R8
	JZ         applynext
	VMASKMOVPS (SI), Y11, Y0
	BNAPPLY(Y0, Y1, Y2)
	VMASKMOVPS Y1, Y11, (DX)
	VMASKMOVPS Y2, Y11, (DI)
	LEAQ       (DI)(R8*4), DI
	LEAQ       (DX)(R8*4), DX
	LEAQ       (SI)(R8*4), SI

applynext:
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	DECQ BX
	JNZ  applych
	VZEROUPPER
	RET

// BNGRAD writes gi·((dy − meanDy) − xhat·meanDyXhat) for the 8 floats of
// dy in D and of xhat in H to D. Y12 = gi, Y13 = meanDy,
// Y14 = meanDyXhat.
#define BNGRAD(D, H) \
	VMULPS H, Y14, H \
	VSUBPS Y13, D, D \
	VSUBPS H, D, D \
	VMULPS D, Y12, D

// func batchNormInputGradAVX2(dx, dy, xhat *float32, sp, c uintptr, gi, meanDy, meanDyXhat *float32)
TEXT ·batchNormInputGradAVX2(SB), NOSPLIT, $0-64
	MOVQ dx+0(FP), DI
	MOVQ dy+8(FP), SI
	MOVQ xhat+16(FP), DX
	MOVQ c+32(FP), BX
	MOVQ gi+40(FP), R10
	MOVQ meanDy+48(FP), R11
	MOVQ meanDyXhat+56(FP), R12
	MOVQ sp+24(FP), R9
	TAIL_MASK

gradch:
	VBROADCASTSS (R10), Y12
	VBROADCASTSS (R11), Y13
	VBROADCASTSS (R12), Y14
	MOVQ         sp+24(FP), CX
	SHRQ         $3, CX
	JZ           gradtail

	PCALIGN $32
grad8loop:
	VMOVUPS (SI), Y0
	VMOVUPS (DX), Y1
	BNGRAD(Y0, Y1)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     grad8loop

gradtail:
	TESTQ      R8, R8
	JZ         gradnext
	VMASKMOVPS (SI), Y11, Y0
	VMASKMOVPS (DX), Y11, Y1
	BNGRAD(Y0, Y1)
	VMASKMOVPS Y0, Y11, (DI)
	LEAQ       (DI)(R8*4), DI
	LEAQ       (SI)(R8*4), SI
	LEAQ       (DX)(R8*4), DX

gradnext:
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ $4, R12
	DECQ BX
	JNZ  gradch
	VZEROUPPER
	RET

// The batch-norm statistics kernels sum eight channels' runs of sp
// floats over rows rows (stride floats apart) into float64 accumulators,
// lanes across channels: channels 0–3 in Y12, 4–7 in Y13 (and Y14, Y15
// for the second sum of bnGradSums8AVX2), so each channel keeps its own
// chain of adds in (row, position) order. A block of four positions is
// four 4-float loads per channel group transposed into one vector per
// position; positions past the last whole block are gathered one at a
// time. SI, R9 and R10 point at channels 0, 3 and 6 of the current
// position (R8 = sp·4 apart), and R13 at the row's start.

// TRANSPOSE4 turns A, B, C, D (four positions of four channels) into
// one vector per position, p0 in C, p1 in D, p2 in A and p3 in B, with
// scratch T and U. VSHUFPS $0x44 takes the low halves of its two
// sources, $0xee the high halves.
#define TRANSPOSE4(A, B, C, D, T, U) \
	VUNPCKLPS B, A, T \
	VUNPCKHPS B, A, U \
	VUNPCKLPS D, C, A \
	VUNPCKHPS D, C, B \
	VSHUFPS   $0x44, A, T, C \
	VSHUFPS   $0xee, A, T, D \
	VSHUFPS   $0x44, B, U, A \
	VSHUFPS   $0xee, B, U, B

// LOAD_LO and LOAD_HI load four positions of channels 0–3 and 4–7,
// whose runs start at P0, P0+R8, P0+2·R8, P3, P3+R8, P3+2·R8, P6 and
// P6+R8.
#define LOAD_LO(P0, P3, A, B, C, D) \
	VMOVUPS (P0), A \
	VMOVUPS (P0)(R8*1), B \
	VMOVUPS (P0)(R8*2), C \
	VMOVUPS (P3), D

#define LOAD_HI(P3, P6, A, B, C, D) \
	VMOVUPS (P3)(R8*1), A \
	VMOVUPS (P3)(R8*2), B \
	VMOVUPS (P6), C \
	VMOVUPS (P6)(R8*1), D

// GATHER_LO and GATHER_HI gather one position of channels 0–3 and 4–7
// into A.
#define GATHER_LO(P0, P3, A) \
	VMOVSS    (P0), A \
	VINSERTPS $0x10, (P0)(R8*1), A, A \
	VINSERTPS $0x20, (P0)(R8*2), A, A \
	VINSERTPS $0x30, (P3), A, A

#define GATHER_HI(P3, P6, A) \
	VMOVSS    (P3)(R8*1), A \
	VINSERTPS $0x10, (P3)(R8*2), A, A \
	VINSERTPS $0x20, (P6), A, A \
	VINSERTPS $0x30, (P6)(R8*1), A, A

// ROW_START points P0, P3 and P6 at channels 0, 3 and 6 of the row at
// ROW.
#define ROW_START(ROW, P0, P3, P6) \
	MOVQ ROW, P0 \
	LEAQ (P0)(R8*2), P3 \
	ADDQ R8, P3 \
	LEAQ (P3)(R8*2), P6 \
	ADDQ R8, P6

// ADVANCE moves P0, P3 and P6 on by N bytes.
#define ADVANCE(N, P0, P3, P6) \
	ADDQ N, P0 \
	ADDQ N, P3 \
	ADDQ N, P6

// SUM1 adds the four floats of X, widened, to the accumulator ACC.
#define SUM1(X, ACC) \
	VCVTPS2PD X, Y11 \
	VADDPD    Y11, ACC, ACC

// func bnSums8AVX2(acc *[8]float64, x *float32, sp, rows, stride uintptr)
TEXT ·bnSums8AVX2(SB), NOSPLIT, $0-40
	MOVQ    acc+0(FP), DI
	VMOVUPD 0(DI), Y12
	VMOVUPD 32(DI), Y13
	MOVQ    x+8(FP), R13
	MOVQ    sp+16(FP), R8
	SHLQ    $2, R8
	MOVQ    rows+24(FP), DX
	MOVQ    stride+32(FP), R11
	SHLQ    $2, R11

sumrow:
	ROW_START(R13, SI, R9, R10)
	MOVQ sp+16(FP), CX
	SHRQ $2, CX
	JZ   sumtail

	PCALIGN $32
sum4:
	LOAD_LO(SI, R9, X0, X1, X2, X3)
	TRANSPOSE4(X0, X1, X2, X3, X8, X9)
	SUM1(X2, Y12)
	SUM1(X3, Y12)
	SUM1(X0, Y12)
	SUM1(X1, Y12)
	LOAD_HI(R9, R10, X4, X5, X6, X7)
	TRANSPOSE4(X4, X5, X6, X7, X8, X9)
	SUM1(X6, Y13)
	SUM1(X7, Y13)
	SUM1(X4, Y13)
	SUM1(X5, Y13)
	ADVANCE($16, SI, R9, R10)
	DECQ CX
	JNZ  sum4

sumtail:
	MOVQ sp+16(FP), CX
	ANDQ $3, CX
	JZ   sumnext

sum1:
	GATHER_LO(SI, R9, X0)
	SUM1(X0, Y12)
	GATHER_HI(R9, R10, X4)
	SUM1(X4, Y13)
	ADVANCE($4, SI, R9, R10)
	DECQ CX
	JNZ  sum1

sumnext:
	ADDQ R11, R13
	DECQ DX
	JNZ  sumrow

	VMOVUPD Y12, 0(DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// SQUARE1 adds (float64(X − M))² to ACC; M holds four channels' means.
#define SQUARE1(X, M, ACC) \
	VSUBPS    M, X, X \
	VCVTPS2PD X, Y11 \
	VMULPD    Y11, Y11, Y11 \
	VADDPD    Y11, ACC, ACC

// func bnSquares8AVX2(acc *[8]float64, x *float32, sp, rows, stride uintptr, mean *[8]float32)
TEXT ·bnSquares8AVX2(SB), NOSPLIT, $0-48
	MOVQ    acc+0(FP), DI
	VMOVUPD 0(DI), Y12
	VMOVUPD 32(DI), Y13
	MOVQ    mean+40(FP), AX
	VMOVUPS 0(AX), X14
	VMOVUPS 16(AX), X15
	MOVQ    x+8(FP), R13
	MOVQ    sp+16(FP), R8
	SHLQ    $2, R8
	MOVQ    rows+24(FP), DX
	MOVQ    stride+32(FP), R11
	SHLQ    $2, R11

sqrow:
	ROW_START(R13, SI, R9, R10)
	MOVQ sp+16(FP), CX
	SHRQ $2, CX
	JZ   sqtail

	PCALIGN $32
sq4:
	LOAD_LO(SI, R9, X0, X1, X2, X3)
	TRANSPOSE4(X0, X1, X2, X3, X8, X9)
	SQUARE1(X2, X14, Y12)
	SQUARE1(X3, X14, Y12)
	SQUARE1(X0, X14, Y12)
	SQUARE1(X1, X14, Y12)
	LOAD_HI(R9, R10, X4, X5, X6, X7)
	TRANSPOSE4(X4, X5, X6, X7, X8, X9)
	SQUARE1(X6, X15, Y13)
	SQUARE1(X7, X15, Y13)
	SQUARE1(X4, X15, Y13)
	SQUARE1(X5, X15, Y13)
	ADVANCE($16, SI, R9, R10)
	DECQ CX
	JNZ  sq4

sqtail:
	MOVQ sp+16(FP), CX
	ANDQ $3, CX
	JZ   sqnext

sq1:
	GATHER_LO(SI, R9, X0)
	SQUARE1(X0, X14, Y12)
	GATHER_HI(R9, R10, X4)
	SQUARE1(X4, X15, Y13)
	ADVANCE($4, SI, R9, R10)
	DECQ CX
	JNZ  sq1

sqnext:
	ADDQ R11, R13
	DECQ DX
	JNZ  sqrow

	VMOVUPD Y12, 0(DI)
	VMOVUPD Y13, 32(DI)
	VZEROUPPER
	RET

// GRAD1 adds the four floats of D (dy), widened, to A1 and their
// products with those of H (xhat), widened, to A2.
#define GRAD1(D, H, A1, A2) \
	VCVTPS2PD D, Y10 \
	VADDPD    Y10, A1, A1 \
	VCVTPS2PD H, Y11 \
	VMULPD    Y11, Y10, Y11 \
	VADDPD    Y11, A2, A2

// func bnGradSums8AVX2(acc *[16]float64, dy, xhat *float32, sp, rows, stride uintptr)
//
// acc[0:8] are the sums of dy, acc[8:16] those of dy·xhat. BX, AX and
// R12 point at xhat's channels 0, 3 and 6, DI at its row's start.
TEXT ·bnGradSums8AVX2(SB), NOSPLIT, $0-48
	MOVQ    acc+0(FP), DI
	VMOVUPD 0(DI), Y12
	VMOVUPD 32(DI), Y13
	VMOVUPD 64(DI), Y14
	VMOVUPD 96(DI), Y15
	MOVQ    dy+8(FP), R13
	MOVQ    xhat+16(FP), DI
	MOVQ    sp+24(FP), R8
	SHLQ    $2, R8
	MOVQ    rows+32(FP), DX
	MOVQ    stride+40(FP), R11
	SHLQ    $2, R11

gradrow:
	ROW_START(R13, SI, R9, R10)
	ROW_START(DI, BX, AX, R12)
	MOVQ sp+24(FP), CX
	SHRQ $2, CX
	JZ   gradsumtail

	PCALIGN $32
gradsum4:
	LOAD_LO(SI, R9, X0, X1, X2, X3)
	TRANSPOSE4(X0, X1, X2, X3, X8, X9)
	LOAD_LO(BX, AX, X4, X5, X6, X7)
	TRANSPOSE4(X4, X5, X6, X7, X8, X9)
	GRAD1(X2, X6, Y12, Y14)
	GRAD1(X3, X7, Y12, Y14)
	GRAD1(X0, X4, Y12, Y14)
	GRAD1(X1, X5, Y12, Y14)
	LOAD_HI(R9, R10, X0, X1, X2, X3)
	TRANSPOSE4(X0, X1, X2, X3, X8, X9)
	LOAD_HI(AX, R12, X4, X5, X6, X7)
	TRANSPOSE4(X4, X5, X6, X7, X8, X9)
	GRAD1(X2, X6, Y13, Y15)
	GRAD1(X3, X7, Y13, Y15)
	GRAD1(X0, X4, Y13, Y15)
	GRAD1(X1, X5, Y13, Y15)
	ADVANCE($16, SI, R9, R10)
	ADVANCE($16, BX, AX, R12)
	DECQ CX
	JNZ  gradsum4

gradsumtail:
	MOVQ sp+24(FP), CX
	ANDQ $3, CX
	JZ   gradsumnext

gradsum1:
	GATHER_LO(SI, R9, X0)
	GATHER_LO(BX, AX, X4)
	GRAD1(X0, X4, Y12, Y14)
	GATHER_HI(R9, R10, X0)
	GATHER_HI(AX, R12, X4)
	GRAD1(X0, X4, Y13, Y15)
	ADVANCE($4, SI, R9, R10)
	ADVANCE($4, BX, AX, R12)
	DECQ CX
	JNZ  gradsum1

gradsumnext:
	ADDQ R11, R13
	ADDQ R11, DI
	DECQ DX
	JNZ  gradrow

	MOVQ    acc+0(FP), DI
	VMOVUPD Y12, 0(DI)
	VMOVUPD Y13, 32(DI)
	VMOVUPD Y14, 64(DI)
	VMOVUPD Y15, 96(DI)
	VZEROUPPER
	RET
