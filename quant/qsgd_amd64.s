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

// The table decode. Both kernels read the bucket's table as dequantise
// built it and write, for each code, its entry: the same float bits as
// lookupCodes. With add set they add the entry to the element instead,
// the element being VADDPS's first source as in tensor's addAVX2, so
// that of two NaNs the element's survives there and here alike.
//
// Go operand order: VPERMPS t, i, d is d[k] = t[i[k] & 7], VPSRLVD c,
// a, d is d[k] = a[k] >> c[k] and VBLENDVPS m, b, a, d is d[k] = b[k]
// where bit 31 of m[k] is set, a[k] elsewhere.

// LOOKUP4 leaves in Y the table entries of the eight 4-bit codes of the
// word at (SI): the word in every lane, lane k shifted right by 4k
// (Y14) so that code k is in its low bits. VPERMPS picks by bits 0–2
// among entries 0–7 (Y12) and among entries 8–15 (Y13); VBLENDVPS takes
// the second where bit 3, shifted up to bit 31, is set. T and U are
// clobbered.
#define LOOKUP4(Y, T, U) \
	VPBROADCASTD (SI), Y   \
	VPSRLVD      Y14, Y, Y \
	VPERMPS      Y12, Y, T \
	VPERMPS      Y13, Y, U \
	VPSLLD       $28, Y, Y \
	VBLENDVPS    Y, U, T, Y

// func lookup4AVX2(out *float32, codes *byte, words uintptr, tab *[256]float32, add bool)
TEXT ·lookup4AVX2(SB), NOSPLIT, $0-33
	MOVQ      out+0(FP), DI
	MOVQ      codes+8(FP), SI
	MOVQ      words+16(FP), CX
	MOVQ      tab+24(FP), AX
	VMOVUPS   (AX), Y12
	VMOVUPS   32(AX), Y13
	MOVQ      $0x1c1814100c080400, AX // 0, 4, …, 28
	VMOVQ     AX, X14
	VPMOVZXBD X14, Y14
	CMPB      add+32(FP), $0
	JNE       l4add

	PCALIGN $32
l4:
	LOOKUP4(Y0, Y1, Y2)
	VMOVUPS Y0, (DI)
	ADDQ    $4, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     l4
	VZEROUPPER
	RET

	PCALIGN $32
l4add:
	LOOKUP4(Y0, Y1, Y2)
	VMOVUPS (DI), Y3
	VADDPS  Y0, Y3, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $4, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     l4add
	VZEROUPPER
	RET

// LOOKUP2 leaves in Y and Z the table entries of codes 0–7 and 8–15 of
// the sixteen 2-bit codes of the word at (SI): lane k shifted right by
// 2k (Y14) or 16+2k (Y15). The four entries fill both halves of Y12, so
// VPERMPS's third index bit, the next code's low bit, picks the same
// entry as the code alone.
#define LOOKUP2(Y, Z) \
	VPBROADCASTD (SI), Z   \
	VPSRLVD      Y14, Z, Y \
	VPSRLVD      Y15, Z, Z \
	VPERMPS      Y12, Y, Y \
	VPERMPS      Y12, Z, Z

// func lookup2AVX2(out *float32, codes *byte, words uintptr, tab *[256]float32, add bool)
TEXT ·lookup2AVX2(SB), NOSPLIT, $0-33
	MOVQ           out+0(FP), DI
	MOVQ           codes+8(FP), SI
	MOVQ           words+16(FP), CX
	MOVQ           tab+24(FP), AX
	VBROADCASTF128 (AX), Y12
	MOVQ           $0x0e0c0a0806040200, AX // 0, 2, …, 14
	VMOVQ          AX, X14
	VPMOVZXBD      X14, Y14
	MOVQ           $0x1e1c1a1816141210, AX // 16, 18, …, 30
	VMOVQ          AX, X15
	VPMOVZXBD      X15, Y15
	CMPB           add+32(FP), $0
	JNE            l2add

	PCALIGN $32
l2:
	LOOKUP2(Y0, Y1)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $4, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     l2
	VZEROUPPER
	RET

	PCALIGN $32
l2add:
	LOOKUP2(Y0, Y1)
	VMOVUPS (DI), Y2
	VMOVUPS 32(DI), Y3
	VADDPS  Y0, Y2, Y0
	VADDPS  Y1, Y3, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $4, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     l2add
	VZEROUPPER
	RET

// The pack. Each kernel writes 32 bytes of packed words per block of
// 256/bits codes: the same bytes as packCodes' word cases.
//
// Go operand order: VPACKUSDW b, a, d and VPACKUSWB b, a, d put, in
// each 128-bit lane, a's narrowed elements before b's; VPERMD t, i, d is
// d[k] = t[i[k]]; VPMADDUBSW m, a, d is d[k] = a[2k]·m[2k] +
// a[2k+1]·m[2k+1] over bytes into words, VPMADDWD the same over words
// into dwords.

// BYTES32 leaves in Y the 32 codes at o(SI), each below 256, as 32
// bytes in element order. Narrowing dwords to words and words to bytes
// lane by lane leaves the runs of four codes in the dword order 0 2 4 6
// 1 3 5 7, which VPERMD by Y15 = [0 4 1 5 2 6 3 7] undoes. T is
// clobbered.
#define BYTES32(o, Y, T) \
	VMOVDQU   o(SI), Y       \
	VPACKUSDW o+32(SI), Y, Y \
	VMOVDQU   o+64(SI), T    \
	VPACKUSDW o+96(SI), T, T \
	VPACKUSWB T, Y, Y        \
	VPERMD    Y, Y15, Y

// BYTESORDER puts BYTES32's permutation in Y15.
#define BYTESORDER \
	MOVQ      $0x0703060205010400, AX \
	VMOVQ     AX, X15                 \
	VPMOVZXBD X15, Y15

// func pack8AVX2(dst *byte, codes *uint32, blocks uintptr)
//
// A block is 32 codes, a byte each.
TEXT ·pack8AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ blocks+16(FP), CX
	BYTESORDER

	PCALIGN $32
p8:
	BYTES32(0, Y0, Y1)
	VMOVDQU Y0, (DI)
	ADDQ    $128, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     p8
	VZEROUPPER
	RET

// func pack4AVX2(dst *byte, codes *uint32, blocks uintptr)
//
// A block is 64 codes. VPMADDUBSW by bytes [1 16] joins codes 2k and
// 2k+1 into the byte value of word k; narrowing two such vectors to
// bytes interleaves their lanes by quadwords, which VPERMQ $0xd8
// (0 2 1 3) undoes.
TEXT ·pack4AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ blocks+16(FP), CX
	BYTESORDER
	MOVL         $0x10011001, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14

	PCALIGN $32
p4:
	BYTES32(0, Y0, Y1)
	BYTES32(128, Y2, Y3)
	VPMADDUBSW Y14, Y0, Y0
	VPMADDUBSW Y14, Y2, Y2
	VPACKUSWB  Y2, Y0, Y0
	VPERMQ     $0xd8, Y0, Y0
	VMOVDQU    Y0, (DI)
	ADDQ       $256, SI
	ADDQ       $32, DI
	DECQ       CX
	JNZ        p4
	VZEROUPPER
	RET

// PAIRS2 turns the 32 byte codes in Y into eight dwords, each the byte
// value of four codes: VPMADDUBSW by bytes [1 4] joins pairs into
// words, VPMADDWD by words [1 16] joins pairs of those.
#define PAIRS2(Y) \
	VPMADDUBSW Y14, Y, Y \
	VPMADDWD   Y13, Y, Y

// func pack2AVX2(dst *byte, codes *uint32, blocks uintptr)
//
// A block is 128 codes, four runs of 32 that PAIRS2 turns into a
// quarter of the block's bytes each; narrowing those to bytes leaves
// them in BYTES32's dword order, which Y15 undoes again.
TEXT ·pack2AVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ blocks+16(FP), CX
	BYTESORDER
	MOVL         $0x04010401, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14
	MOVL         $0x00100001, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13

	PCALIGN $32
p2:
	BYTES32(0, Y0, Y4)
	BYTES32(128, Y1, Y4)
	BYTES32(256, Y2, Y4)
	BYTES32(384, Y3, Y4)
	PAIRS2(Y0)
	PAIRS2(Y1)
	PAIRS2(Y2)
	PAIRS2(Y3)
	VPACKUSDW Y1, Y0, Y0
	VPACKUSDW Y3, Y2, Y2
	VPACKUSWB Y2, Y0, Y0
	VPERMD    Y0, Y15, Y0
	VMOVDQU   Y0, (DI)
	ADDQ      $512, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       p2
	VZEROUPPER
	RET
