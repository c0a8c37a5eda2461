#include "textflag.h"

// AVX2 kernels of the QSGD encoder. The contract (operation order, the
// counter-based draw) is in qsgd.go; qsgd_amd64.go holds the Go side and
// hands every kernel a whole number of four-element groups, n >= 4.
// Lanes run across elements, so each lane computes exactly the scalar
// loop. Every instruction touching an X or Y register is VEX-encoded:
// one legacy SSE instruction among them costs an SSE/AVX transition on
// every call.
//
// Go operand order: VDIVPD b, a, d is d = a/b, VSUBPD b, a, d is d = a-b
// and VCMPPD $0x11, b, a, d is d = a < b (LT_OQ: the quiet compare Go's
// < makes, false if either is NaN).

// LINEAR4 is the float pass of the four elements of a group (vals at
// o4(BX)(CX*4), codes at o4(DI)(CX*4), frac at o8(SI)(CX*8)); their
// draw mask goes to M. A, B, C and D are scratch: A the float32 bits
// and then the level, B the magnitude and then the sign bit, C x, D
// frac and the mask.
#define LINEAR4(o4, o8, A, B, C, D, XA, XB, M) \
	VMOVDQU     o4(BX)(CX*4), XA \ // b, the float32 bits
	VPAND       X12, XA, XB      \ // mag = b with the bits of signMask cleared
	VCVTPS2PD   XB, C            \
	VPSUBD      XB, X9, XB       \ // −mag
	VPAND       XA, XB, XB       \
	VPSRAD      $31, XB, XB      \ // neg: v < 0 and mag ≠ 0
	VPAND       X11, XB, XB      \ // neg & signBit
	VADDPD      Y15, C, C        \
	VDIVPD      Y14, C, C        \
	VMULPD      Y13, C, C        \ // x = (mag + shift) / width · s
	VCVTTPD2DQY C, XA            \ // ⌊x⌋ as x ≥ 0; NaN gives 0x80000000
	VCVTDQ2PD   XA, D            \
	VSUBPD      D, C, D          \ // frac = x − ⌊x⌋
	VMOVUPD     D, o8(SI)(CX*8)  \
	VPAND       X10, XA, XA      \ // NaN's level masks to 0, as in Go
	VPOR        XB, XA, XA       \
	VMOVDQU     XA, o4(DI)(CX*4) \
	VCMPPD      $0x11, C, Y9, D  \ // 0 < x
	VCMPPD      $0x11, Y13, C, C \ // x < s
	VANDPD      C, D, D          \
	VMOVMSKPD   D, M

// DRAWBYTES stores the four bits of the mask M as four bytes of 0 or 1
// at o(DX)(CX*1): the copies of M shifted by 0, 7, 14 and 21 do not
// overlap, and bit k of copy k lands on bit 8k.
#define DRAWBYTES(o, M) \
	IMUL3L $0x204081, M, M \
	ANDL   $0x01010101, M  \
	MOVL   M, o(DX)(CX*1)

// func linearAVX2(codes *uint32, frac *float64, draw *uint8, vals *float32, n uintptr, shift, width, s float64, absMask, signBit, lvlMask uint32)
//
// The pointers are advanced to the end of the run and CX counts up from
// −n to 0. An odd group goes first; the loop then takes two groups per
// iteration, so that the dependency chain of one (the divide is most
// of it) overlaps the other's.
TEXT ·linearAVX2(SB), NOSPLIT, $0-76
	MOVQ         codes+0(FP), DI
	MOVQ         frac+8(FP), SI
	MOVQ         draw+16(FP), DX
	MOVQ         vals+24(FP), BX
	MOVQ         n+32(FP), CX
	LEAQ         (DI)(CX*4), DI
	LEAQ         (SI)(CX*8), SI
	ADDQ         CX, DX
	LEAQ         (BX)(CX*4), BX
	NEGQ         CX
	VBROADCASTSD shift+40(FP), Y15
	VBROADCASTSD width+48(FP), Y14
	VBROADCASTSD s+56(FP), Y13
	MOVL         absMask+64(FP), AX
	VMOVD        AX, X12
	VPBROADCASTD X12, X12
	MOVL         signBit+68(FP), AX
	VMOVD        AX, X11
	VPBROADCASTD X11, X11
	MOVL         lvlMask+72(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10
	VXORPD       Y9, Y9, Y9

	TESTQ $4, CX
	JZ    lin8
	LINEAR4(0, 0, Y0, Y1, Y2, Y3, X0, X1, AX)
	DRAWBYTES(0, AX)
	ADDQ  $4, CX
	JZ    lindone

	PCALIGN $32
lin8:
	LINEAR4(0, 0, Y0, Y1, Y2, Y3, X0, X1, AX)
	LINEAR4(16, 32, Y4, Y5, Y6, Y7, X4, X5, R8)
	DRAWBYTES(0, AX)
	DRAWBYTES(4, R8)
	ADDQ $8, CX
	JNZ  lin8

lindone:
	VZEROUPPER
	RET

// MUL64 is Z ← Z·C mod 2^64 in each 64-bit lane, for a constant C whose
// low and high 32-bit halves are in the low halves of CL's and CH's
// lanes: lo·lo + (hi(Z)·lo(C) + lo(Z)·hi(C))·2^32. T and U are
// clobbered.
#define MUL64(Z, CL, CH, T, U) \
	VPSRLQ   $32, Z, T \
	VPMULUDQ CL, T, T  \
	VPMULUDQ CH, Z, U  \
	VPADDQ   U, T, T   \
	VPSLLQ   $32, T, T \
	VPMULUDQ CL, Z, Z  \
	VPADDQ   T, Z, Z

// XORSHIFT is Z ← Z ^ Z>>k; T is clobbered.
#define XORSHIFT(k, Z, T) \
	VPSRLQ $k, Z, T \
	VPXOR  T, Z, Z

// BROADCASTQ puts the 64-bit value c, an immediate or an argument, in
// every lane of Y, through AX.
#define BROADCASTQ(c, X, Y) \
	MOVQ         c, AX \
	VMOVQ        AX, X \
	VPBROADCASTQ X, Y

// MASK reads the four draw bytes of the group at o(DX)(CX*1) into R as
// the byte offset of their entry in the steps table, 64m for the mask
// m: the copies of the word shifted by 24, 17, 10 and 3 put byte k's
// bit on bit 24+k, and no other product term reaches bit 24.
#define MASK(o, R) \
	MOVL   o(DX)(CX*1), R     \
	IMUL3L $0x01020408, R, R  \
	SHRL   $24, R             \
	SHLL   $6, R

// COUNTER puts lane k's splitmix64 counter in Z: the state (in every
// lane of Y0) plus γ·(1 + draws before k), steps[m].lanes[k]. The
// group then advances the state by γ·popcount(m), steps[m].advance;
// that add is all one group waits on the last for.
#define COUNTER(R, Z) \
	VPADDQ (R9)(R*1), Y0, Z \
	VPADDQ 32(R9)(R*1), Y0, Y0

// MIX is splitmix64's output mix of the counters in Z, in lanes.
#define MIX(Z, T, U) \
	XORSHIFT(30, Z, T)       \
	MUL64(Z, Y15, Y14, T, U) \
	XORSHIFT(27, Z, T)       \
	MUL64(Z, Y13, Y12, T, U) \
	XORSHIFT(31, Z, T)

// UNIT turns the 64 random bits in Z into UnitFloat64's value in U,
// exactly: u = r>>11 < 2^53 is 2^52 + lo32(u) and 2^84 + hi(u)·2^32 as
// float64 bit patterns, whose difference of magic constants is exact
// and whose sum is u; the scaling by 2^−53 is exact too.
#define UNIT(Z, T, U) \
	VPSRLQ   $11, Z, Z        \
	VPBLENDD $0xaa, Y11, Z, T \
	VPSRLQ   $32, Z, U        \
	VPOR     Y10, U, U        \
	VSUBPD   Y9, U, U         \
	VADDPD   T, U, U          \
	VMULPD   Y8, U, U

// BUMP adds one to the group's codes (at o4(DI)(CX*4)) whose draw in U
// is below their frac (at o8(SI)(CX*8)): the low halves of the four
// all-ones or zero compare masks, subtracted.
#define BUMP(o4, o8, U, XU, XT) \
	VCMPPD       $0x11, o8(SI)(CX*8), U, U \
	VEXTRACTI128 $1, U, XT                 \
	VSHUFPS      $0x88, XT, XU, XU         \
	VMOVDQU      o4(DI)(CX*4), XT          \
	VPSUBD       XU, XT, XT                \
	VMOVDQU      XT, o4(DI)(CX*4)

// func drawAVX2(codes *uint32, frac *float64, draw *uint8, n uintptr, state uint64, steps *[16]drawStep) uint64
//
// The pointers are advanced to the end of the run and CX counts up from
// −n to 0. An odd group goes first; the loop then takes two groups per
// iteration, so that the long dependency chain of one group's mix
// overlaps the other's.
TEXT ·drawAVX2(SB), NOSPLIT, $0-56
	MOVQ codes+0(FP), DI
	MOVQ frac+8(FP), SI
	MOVQ draw+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ steps+40(FP), R9
	LEAQ (DI)(CX*4), DI
	LEAQ (SI)(CX*8), SI
	ADDQ CX, DX
	NEGQ CX
	BROADCASTQ(state+32(FP), X0, Y0)
	BROADCASTQ($0x1ce4e5b9, X15, Y15)         // splitmix64's first multiplier, low half
	BROADCASTQ($0xbf58476d, X14, Y14)         // and high half
	BROADCASTQ($0x133111eb, X13, Y13)         // the second multiplier, low half
	BROADCASTQ($0x94d049bb, X12, Y12)         // and high half
	BROADCASTQ($0x4330000000000000, X11, Y11) // 2^52
	BROADCASTQ($0x4530000000000000, X10, Y10) // 2^84
	BROADCASTQ($0x4530000000100000, X9, Y9)   // 2^84 + 2^52
	BROADCASTQ($0x3ca0000000000000, X8, Y8)   // 2^−53

	TESTQ $4, CX
	JZ    draw8
	MASK(0, AX)
	COUNTER(AX, Y1)
	MIX(Y1, Y2, Y3)
	UNIT(Y1, Y2, Y3)
	BUMP(0, 0, Y3, X3, X2)
	ADDQ  $4, CX
	JZ    drawdone

	PCALIGN $32
draw8:
	MASK(0, AX)
	MASK(4, BX)
	COUNTER(AX, Y1)
	COUNTER(BX, Y4)
	MIX(Y1, Y2, Y3)
	MIX(Y4, Y5, Y6)
	UNIT(Y1, Y2, Y3)
	UNIT(Y4, Y5, Y6)
	BUMP(0, 0, Y3, X3, X2)
	BUMP(16, 32, Y6, X6, X5)
	ADDQ $8, CX
	JNZ  draw8

drawdone:
	VMOVQ X0, ret+48(FP)
	VZEROUPPER
	RET
