#include "textflag.h"

// AVX2 activation kernels. The contract (the scalar each lane equals,
// why the IEEE-only exp sequence suffices, why the clamps change no
// output) is in activation.go; activation_amd64.go holds the Go side
// and hands every kernel a whole number of eight-float vectors, n >= 8.
// In sigmoid and tanh, the eight floats of an iteration widen into two
// float64 vectors, A (the first four) and B, each one dependency chain;
// the macros step both chains through every operation, so one chain's
// latency overlaps the other's. Constants are 32-byte memory operands.
//
// Go operand order: VSUBPD b, a, d is d = a-b, VDIVPD b, a, d is
// d = a/b, VMINPD b, a, d is d = a < b ? a : b (b when either is NaN),
// VCMPPD $c, b, a, d is d = a <c> b and VBLENDVPD m, b, a, d is
// d = m ? b : a, lane by lane.

#define CONST4(name, v) \
	DATA name<>+0(SB)/8, v  \
	DATA name<>+8(SB)/8, v  \
	DATA name<>+16(SB)/8, v \
	DATA name<>+24(SB)/8, v \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// math.Exp's constants (math/exp_amd64.s), bit for bit.
CONST4(log2e, $1.4426950408889634073599246810018920)
CONST4(ln2u, $0.69314718055966295651160180568695068359375)
CONST4(ln2l, $0.28235290563031577122588448175013436025525412068e-12)
CONST4(sixteenth, $0.0625)
CONST4(exp8, $2.4801587301587301587e-5)
CONST4(exp7, $1.9841269841269841270e-4)
CONST4(exp6, $1.3888888888888888889e-3)
CONST4(exp5, $8.3333333333333333333e-3)
CONST4(exp4, $4.1666666666666666667e-2)
CONST4(exp3, $1.6666666666666666667e-1)
CONST4(half, $0.5)
CONST4(one, $1.0)
CONST4(two, $2.0)

// math.Tanh's rational below |x| = 0.625 (math/tanh.go).
CONST4(tanhP0, $-9.64399179425052238628e-1)
CONST4(tanhP1, $-9.92877231001918586564e1)
CONST4(tanhP2, $-1.61468768441708447952e3)
CONST4(tanhQ0, $1.12811678491632931402e2)
CONST4(tanhQ1, $2.23548839060100448583e3)
CONST4(tanhQ2, $4.84406305325125486048e3)
CONST4(tanhSmall, $0.625)

// The clamps (activation.go says why they change no output).
CONST4(sigLo, $-40.0)
CONST4(sigHi, $105.0)
CONST4(tanhHi, $20.0)

CONST4(signBit, $0x8000000000000000)
CONST4(absMask, $0x7fffffffffffffff)

// The float64 exponent bias, one int32 per lane of a k vector.
DATA expBias<>+0(SB)/4, $1023
DATA expBias<>+4(SB)/4, $1023
DATA expBias<>+8(SB)/4, $1023
DATA expBias<>+12(SB)/4, $1023
GLOBL expBias<>(SB), RODATA|NOPTR, $16

// HORNER2 is one Horner step of both chains: p ← p·x + c.
#define HORNER2(c) \
	VMULPD Y0, Y1, Y1 \
	VMULPD Y4, Y5, Y5 \
	VADDPD c, Y1, Y1  \
	VADDPD c, Y5, Y5

// SQUARE2 is one squaring step of both chains: y ← y·(y+2).
#define SQUARE2 \
	VADDPD two<>(SB), Y0, Y1 \
	VADDPD two<>(SB), Y4, Y5 \
	VMULPD Y1, Y0, Y0        \
	VMULPD Y5, Y4, Y4

// EXP2 replaces Y0 (chain A) and Y4 (chain B) by e^x, by the operations
// of math.Exp's non-FMA path in its order, for x in [−40, 105]: there
// k = round(x·log2e) is in [−58, 152] and 2^k a normal float64, so none
// of math.Exp's overflow, underflow or denormal branches is taken.
// Scratch per chain: Y1, Y2, Y3 (A) and Y5, Y6, Y7 (B); X3 and X7 hold
// k as int32s.
#define EXP2 \
	VMULPD     log2e<>(SB), Y0, Y1     \
	VMULPD     log2e<>(SB), Y4, Y5     \
	VCVTPD2DQY Y1, X3                  \ // k, rounded to nearest as CVTSD2SL
	VCVTPD2DQY Y5, X7                  \
	VCVTDQ2PD  X3, Y1                  \
	VCVTDQ2PD  X7, Y5                  \
	VMULPD     ln2u<>(SB), Y1, Y2      \
	VMULPD     ln2u<>(SB), Y5, Y6      \
	VSUBPD     Y2, Y0, Y0              \
	VSUBPD     Y6, Y4, Y4              \
	VMULPD     ln2l<>(SB), Y1, Y2      \
	VMULPD     ln2l<>(SB), Y5, Y6      \
	VSUBPD     Y2, Y0, Y0              \ // r = x − k·ln2u − k·ln2l
	VSUBPD     Y6, Y4, Y4              \
	VMULPD     sixteenth<>(SB), Y0, Y0 \ // x = r/16
	VMULPD     sixteenth<>(SB), Y4, Y4 \
	VMULPD     exp8<>(SB), Y0, Y1      \
	VMULPD     exp8<>(SB), Y4, Y5      \
	VADDPD     exp7<>(SB), Y1, Y1      \
	VADDPD     exp7<>(SB), Y5, Y5      \
	HORNER2(exp6<>(SB))                \
	HORNER2(exp5<>(SB))                \
	HORNER2(exp4<>(SB))                \
	HORNER2(exp3<>(SB))                \
	HORNER2(half<>(SB))                \
	HORNER2(one<>(SB))                 \
	VMULPD     Y1, Y0, Y0              \ // y = x·p, e^r − 1 after the squarings
	VMULPD     Y5, Y4, Y4              \
	SQUARE2                            \
	SQUARE2                            \
	SQUARE2                            \
	SQUARE2                            \
	VADDPD     one<>(SB), Y0, Y0       \
	VADDPD     one<>(SB), Y4, Y4       \
	VPADDD     expBias<>(SB), X3, X3   \ // 2^k = (k + 1023) << 52
	VPADDD     expBias<>(SB), X7, X7   \
	VPMOVZXDQ  X3, Y3                  \
	VPMOVZXDQ  X7, Y7                  \
	VPSLLQ     $52, Y3, Y3             \
	VPSLLQ     $52, Y7, Y7             \
	VMULPD     Y3, Y0, Y0              \
	VMULPD     Y7, Y4, Y4

// func sigmoidAVX2(dst, src *float32, n uintptr)
//
// Per lane: u = −v clamped to [−40, 105], then 1/(1+e^u) rounded to
// float32. Y14 and Y15 hold the clamps.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPD sigLo<>(SB), Y14
	VMOVUPD sigHi<>(SB), Y15

	PCALIGN $32
sigloop:
	VCVTPS2PD  0(SI), Y0
	VCVTPS2PD  16(SI), Y4
	VXORPD     signBit<>(SB), Y0, Y0
	VXORPD     signBit<>(SB), Y4, Y4
	VMAXPD     Y0, Y14, Y0
	VMAXPD     Y4, Y14, Y4
	VMINPD     Y0, Y15, Y0
	VMINPD     Y4, Y15, Y4
	EXP2
	VADDPD     one<>(SB), Y0, Y0
	VADDPD     one<>(SB), Y4, Y4
	VMOVUPD    one<>(SB), Y1
	VMOVUPD    one<>(SB), Y5
	VDIVPD     Y0, Y1, Y0
	VDIVPD     Y4, Y5, Y4
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y4, X4
	VMOVUPS    X0, 0(DI)
	VMOVUPS    X4, 16(DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $8, CX
	JNZ        sigloop

	VZEROUPPER
	RET

// func tanhAVX2(dst, src *float32, n uintptr)
//
// Per lane, with x in Y8 (A) and Y9 (B): e = 1 − 2/(e^{2·min(|x|, 20)}+1)
// with the sign of x; r = x + x·s·P(s)/Q(s) with s = x·x, or x itself
// when x = ±0 (the sum would turn −0 into +0); r where |x| < 0.625,
// else e, rounded to float32. Y14 holds the clamp and Y15 zero.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    src+8(FP), SI
	MOVQ    n+16(FP), CX
	VMOVUPD tanhHi<>(SB), Y14
	VXORPD  Y15, Y15, Y15

	PCALIGN $32
tanhloop:
	VCVTPS2PD  0(SI), Y8
	VCVTPS2PD  16(SI), Y9
	VANDPD     absMask<>(SB), Y8, Y0
	VANDPD     absMask<>(SB), Y9, Y4
	VMINPD     Y0, Y14, Y0
	VMINPD     Y4, Y14, Y4
	VADDPD     Y0, Y0, Y0
	VADDPD     Y4, Y4, Y4
	EXP2
	VADDPD     one<>(SB), Y0, Y0
	VADDPD     one<>(SB), Y4, Y4
	VMOVUPD    two<>(SB), Y1
	VMOVUPD    two<>(SB), Y5
	VDIVPD     Y0, Y1, Y1
	VDIVPD     Y4, Y5, Y5
	VMOVUPD    one<>(SB), Y0
	VMOVUPD    one<>(SB), Y4
	VSUBPD     Y1, Y0, Y0
	VSUBPD     Y5, Y4, Y4
	VANDPD     signBit<>(SB), Y8, Y1
	VANDPD     signBit<>(SB), Y9, Y5
	VORPD      Y1, Y0, Y0
	VORPD      Y5, Y4, Y4

	// The rational: s in Y1/Y5, P(s) in Y2/Y6, Q(s) in Y3/Y7.
	VMULPD     Y8, Y8, Y1
	VMULPD     Y9, Y9, Y5
	VMULPD     tanhP0<>(SB), Y1, Y2
	VMULPD     tanhP0<>(SB), Y5, Y6
	VADDPD     tanhP1<>(SB), Y2, Y2
	VADDPD     tanhP1<>(SB), Y6, Y6
	VMULPD     Y1, Y2, Y2
	VMULPD     Y5, Y6, Y6
	VADDPD     tanhP2<>(SB), Y2, Y2
	VADDPD     tanhP2<>(SB), Y6, Y6
	VADDPD     tanhQ0<>(SB), Y1, Y3
	VADDPD     tanhQ0<>(SB), Y5, Y7
	VMULPD     Y1, Y3, Y3
	VMULPD     Y5, Y7, Y7
	VADDPD     tanhQ1<>(SB), Y3, Y3
	VADDPD     tanhQ1<>(SB), Y7, Y7
	VMULPD     Y1, Y3, Y3
	VMULPD     Y5, Y7, Y7
	VADDPD     tanhQ2<>(SB), Y3, Y3
	VADDPD     tanhQ2<>(SB), Y7, Y7
	VMULPD     Y8, Y1, Y1
	VMULPD     Y9, Y5, Y5
	VMULPD     Y2, Y1, Y1
	VMULPD     Y6, Y5, Y5
	VDIVPD     Y3, Y1, Y1
	VDIVPD     Y7, Y5, Y5
	VADDPD     Y1, Y8, Y1
	VADDPD     Y5, Y9, Y5
	VCMPPD     $0, Y15, Y8, Y3        // x == 0
	VCMPPD     $0, Y15, Y9, Y7
	VBLENDVPD  Y3, Y8, Y1, Y1
	VBLENDVPD  Y7, Y9, Y5, Y5

	VANDPD     absMask<>(SB), Y8, Y3
	VANDPD     absMask<>(SB), Y9, Y7
	VCMPPD     $0x11, tanhSmall<>(SB), Y3, Y3 // |x| < 0.625
	VCMPPD     $0x11, tanhSmall<>(SB), Y7, Y7
	VBLENDVPD  Y3, Y1, Y0, Y0
	VBLENDVPD  Y7, Y5, Y4, Y4
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y4, X4
	VMOVUPS    X0, 0(DI)
	VMOVUPS    X4, 16(DI)
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $8, CX
	JNZ        tanhloop

	VZEROUPPER
	RET

// func lstmGateGradsAVX2(dz *float32, h uintptr, dc, dh, ig, fg, gg, og, tc, cp *float32, n uintptr)
//
// Eight elements per iteration, in float32 lanes, by the operations of
// lstmGateGradsGo in its order, with the gates i, f, g and o passed as
// ig, fg, gg and og (g is a register name in Go assembly). DI points
// into dz's input-gate run and R12 into its cell-candidate run; the
// forget and output runs are DX = 4h bytes past them. Y15 holds 1.
TEXT ·lstmGateGradsAVX2(SB), NOSPLIT, $0-88
	MOVQ         dz+0(FP), DI
	MOVQ         h+8(FP), DX
	SHLQ         $2, DX
	LEAQ         (DI)(DX*2), R12
	MOVQ         dc+16(FP), SI
	MOVQ         dh+24(FP), BX
	MOVQ         ig+32(FP), R8
	MOVQ         fg+40(FP), R9
	MOVQ         gg+48(FP), R10
	MOVQ         og+56(FP), R11
	MOVL         $0x3f800000, AX
	VMOVD        AX, X15
	VBROADCASTSS X15, Y15
	MOVQ         tc+64(FP), AX
	MOVQ         cp+72(FP), R13
	MOVQ         n+80(FP), CX

	PCALIGN $32
gradloop:
	VMOVUPS (BX), Y0         // dh
	VMOVUPS (AX), Y1         // tc
	VMOVUPS (R11), Y2        // o
	VMULPS  Y1, Y0, Y3       // do = dh·tc
	VMULPS  Y1, Y1, Y1
	VSUBPS  Y1, Y15, Y1      // 1 − tc·tc
	VMULPS  Y2, Y0, Y0
	VMULPS  Y1, Y0, Y0
	VADDPS  (SI), Y0, Y0     // dcj = dc + dh·o·(1 − tc·tc)
	VMULPS  Y2, Y3, Y3
	VSUBPS  Y2, Y15, Y2
	VMULPS  Y2, Y3, Y3       // do·o·(1 − o)
	VMOVUPS Y3, (R12)(DX*1)
	VMOVUPS (R8), Y1         // i
	VMOVUPS (R9), Y2         // f
	VMOVUPS (R10), Y3        // g
	VMULPS  Y3, Y0, Y4       // di = dcj·g
	VMULPS  Y1, Y4, Y4
	VSUBPS  Y1, Y15, Y5
	VMULPS  Y5, Y4, Y4       // di·i·(1 − i)
	VMOVUPS Y4, (DI)
	VMULPS  (R13), Y0, Y4    // df = dcj·cp
	VMULPS  Y2, Y4, Y4
	VSUBPS  Y2, Y15, Y5
	VMULPS  Y5, Y4, Y4       // df·f·(1 − f)
	VMOVUPS Y4, (DI)(DX*1)
	VMULPS  Y1, Y0, Y4       // dg = dcj·i
	VMULPS  Y3, Y3, Y3
	VSUBPS  Y3, Y15, Y3
	VMULPS  Y3, Y4, Y4       // dg·(1 − g·g)
	VMOVUPS Y4, (R12)
	VMULPS  Y2, Y0, Y0
	VMOVUPS Y0, (SI)         // dc = dcj·f
	ADDQ    $32, DI
	ADDQ    $32, R12
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	ADDQ    $32, AX
	ADDQ    $32, R13
	SUBQ    $8, CX
	JNZ     gradloop

	VZEROUPPER
	RET
