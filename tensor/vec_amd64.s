#include "textflag.h"

// AVX2 vector kernels. The contract (per-element operation order, no
// FMA) is in vec.go; vec_amd64.go holds the Go side and hands every
// kernel a whole number of eight-float vectors, n >= 8. Lanes run
// across elements, so each lane computes exactly the scalar loop.
// Every kernel goes 32 elements at a time (four independent vectors),
// then 8 at a time.
//
// Go operand order: VMULPS b, a, d is d = a*b, VSUBPS b, a, d is
// d = a-b and VADDPS b, a, d is d = a+b.

// MOMENTUM updates the 8 elements at off: g ← a·g, v ← μ·v − η·g,
// w ← w + v. Y13 = a, Y14 = μ, Y15 = η; DI = w, SI = v, DX = g (the
// argument is named grad: g is a register name in Go assembly).
#define MOMENTUM(off, G, V, W) \
	VMULPS  off(DX), Y13, G \
	VMOVUPS G, off(DX) \
	VMULPS  off(SI), Y14, V \
	VMULPS  G, Y15, G \
	VSUBPS  G, V, V \
	VMOVUPS V, off(SI) \
	VADDPS  off(DI), V, W \
	VMOVUPS W, off(DI)

// MOMENTUM_DECAY is MOMENTUM with the gradient g + λ·w (Y12 = λ) in
// the velocity update; g itself keeps a·g.
#define MOMENTUM_DECAY(off, G, V, W) \
	VMULPS  off(DX), Y13, G \
	VMOVUPS G, off(DX) \
	VMOVUPS off(DI), W \
	VMULPS  W, Y12, V \
	VADDPS  V, G, G \
	VMULPS  off(SI), Y14, V \
	VMULPS  G, Y15, G \
	VSUBPS  G, V, V \
	VMOVUPS V, off(SI) \
	VADDPS  W, V, W \
	VMOVUPS W, off(DI)

// func momentumAVX2(w, v, grad *float32, n uintptr, a, mu, eta float32)
TEXT ·momentumAVX2(SB), NOSPLIT, $0-44
	MOVQ         w+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS a+32(FP), Y13
	VBROADCASTSS mu+36(FP), Y14
	VBROADCASTSS eta+40(FP), Y15

	PCALIGN $32
mom32:
	CMPQ CX, $32
	JLT  mom8
	MOMENTUM(0, Y0, Y1, Y2)
	MOMENTUM(32, Y3, Y4, Y5)
	MOMENTUM(64, Y6, Y7, Y8)
	MOMENTUM(96, Y9, Y10, Y11)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  mom32

mom8:
	TESTQ CX, CX
	JZ    momdone
	MOMENTUM(0, Y0, Y1, Y2)
	ADDQ  $32, DI
	ADDQ  $32, SI
	ADDQ  $32, DX
	SUBQ  $8, CX
	JMP   mom8

momdone:
	VZEROUPPER
	RET

// func momentumDecayAVX2(w, v, grad *float32, n uintptr, a, mu, eta, lambda float32)
TEXT ·momentumDecayAVX2(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         v+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS a+32(FP), Y13
	VBROADCASTSS mu+36(FP), Y14
	VBROADCASTSS eta+40(FP), Y15
	VBROADCASTSS lambda+44(FP), Y12

	PCALIGN $32
dec32:
	CMPQ CX, $32
	JLT  dec8
	MOMENTUM_DECAY(0, Y0, Y1, Y2)
	MOMENTUM_DECAY(32, Y3, Y4, Y5)
	MOMENTUM_DECAY(64, Y6, Y7, Y8)
	MOMENTUM_DECAY(96, Y9, Y10, Y11)
	ADDQ $128, DI
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  dec32

dec8:
	TESTQ CX, CX
	JZ    decdone
	MOMENTUM_DECAY(0, Y0, Y1, Y2)
	ADDQ  $32, DI
	ADDQ  $32, SI
	ADDQ  $32, DX
	SUBQ  $8, CX
	JMP   dec8

decdone:
	VZEROUPPER
	RET

// ADD8 adds the 8 src floats at off(SI) into dst at off(DI).
#define ADD8(off, X) \
	VMOVUPS off(DI), X \
	VADDPS  off(SI), X, X \
	VMOVUPS X, off(DI)

// func addAVX2(dst, src *float32, n uintptr)
//
// Unlike the other kernels this one takes any n >= 1: the last n%8
// elements go one at a time, dst again the first source, so that of
// two NaNs dst's survives in every element (a compiled dst[i] += src[i]
// may put either operand first).
TEXT ·addAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX

	PCALIGN $32
add32:
	CMPQ CX, $32
	JLT  add8
	ADD8(0, Y0)
	ADD8(32, Y1)
	ADD8(64, Y2)
	ADD8(96, Y3)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $32, CX
	JMP  add32

add8:
	CMPQ CX, $8
	JLT  add1
	ADD8(0, Y0)
	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $8, CX
	JMP  add8

add1:
	TESTQ  CX, CX
	JZ     adddone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JMP    add1

adddone:
	VZEROUPPER
	RET

// SCALE8 multiplies the 8 floats at off(DI) by Y15.
#define SCALE8(off, X) \
	VMULPS  off(DI), Y15, X \
	VMOVUPS X, off(DI)

// func scaleAVX2(x *float32, n uintptr, a float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS a+16(FP), Y15

	PCALIGN $32
scale32:
	CMPQ CX, $32
	JLT  scale8
	SCALE8(0, Y0)
	SCALE8(32, Y1)
	SCALE8(64, Y2)
	SCALE8(96, Y3)
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  scale32

scale8:
	TESTQ CX, CX
	JZ    scaledone
	SCALE8(0, Y0)
	ADDQ  $32, DI
	SUBQ  $8, CX
	JMP   scale8

scaledone:
	VZEROUPPER
	RET

// MAXABS8 folds |the 8 floats at off(DI)| into the accumulator A: each
// lane keeps a > acc ? a : acc (VMAXPS returns its second source when
// the comparison fails, a NaN included). Y15 holds the abs mask.
#define MAXABS8(off, T, A) \
	VANDPS off(DI), Y15, T \
	VMAXPS A, T, A

// func maxAbsAVX2(x *float32, n uintptr) float32
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1
	VXORPS       Y2, Y2, Y2
	VXORPS       Y3, Y3, Y3

	PCALIGN $32
max32:
	CMPQ CX, $32
	JLT  max8
	MAXABS8(0, Y4, Y0)
	MAXABS8(32, Y5, Y1)
	MAXABS8(64, Y6, Y2)
	MAXABS8(96, Y7, Y3)
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  max32

max8:
	TESTQ CX, CX
	JZ    maxdone
	MAXABS8(0, Y4, Y0)
	ADDQ  $32, DI
	SUBQ  $8, CX
	JMP   max8

	// The accumulators hold no NaN and no −0, so folding them in any
	// order gives the same value.
maxdone:
	VMAXPS       Y1, Y0, Y0
	VMAXPS       Y3, Y2, Y2
	VMAXPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VMAXPS       X1, X0, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET
