#include "textflag.h"

// The AVX2 normal-draw kernel. The contract (which scalar each lane
// equals, what happens at a u1 of 0) is in norm.go, the reference is
// rng.Norm with its replicas in rng/norm.go, and norm_amd64.go holds
// the Go side. A group is four elements, one float64 lane each; its
// work is one dependency chain, whose constants are 32-byte memory
// operands. Every instruction touching an X or Y register is
// VEX-encoded and none is fused.
//
// Go operand order: VSUBPD b, a, d is d = a-b, VDIVPD b, a, d is
// d = a/b, VCMPPD $c, b, a, d is d = a <c> b and VBLENDVPD m, b, a, d
// is d = m ? b : a, lane by lane.

#define CONST4(name, v) \
	DATA name<>+0(SB)/8, v  \
	DATA name<>+8(SB)/8, v  \
	DATA name<>+16(SB)/8, v \
	DATA name<>+24(SB)/8, v \
	GLOBL name<>(SB), RODATA|NOPTR, $32

#define LANES4(name, a, b, c, d) \
	DATA name<>+0(SB)/8, a  \
	DATA name<>+8(SB)/8, b  \
	DATA name<>+16(SB)/8, c \
	DATA name<>+24(SB)/8, d \
	GLOBL name<>(SB), RODATA|NOPTR, $32

// splitmix64's counters, γ = 0x9e3779b97f4a7c15: element k of a group
// draws u1 at the entry state plus γ·(2k+1) and u2 at γ·(2k+2); the
// group advances the state by 8γ. All mod 2^64.
LANES4(u1Lanes, $0x9e3779b97f4a7c15, $0xdaa66d2c7ddf743f, $0x1715609f7c746c69, $0x538454127b096493)
LANES4(u2Lanes, $0x3c6ef372fe94f82a, $0x78dde6e5fd29f054, $0xb54cda58fbbee87e, $0xf1bbcdcbfa53e0a8)
CONST4(advance, $0xf1bbcdcbfa53e0a8)

// splitmix64's output multipliers, split into 32-bit halves.
CONST4(mul1Lo, $0x1ce4e5b9)
CONST4(mul1Hi, $0xbf58476d)
CONST4(mul2Lo, $0x133111eb)
CONST4(mul2Hi, $0x94d049bb)

// UnitFloat64's exact conversion and the frexp's exponent.
CONST4(p52, $0x4330000000000000)     // 2^52
CONST4(p84, $0x4530000000000000)     // 2^84
CONST4(p84p52, $0x4530000000100000)  // 2^84 + 2^52
CONST4(pm53, $0x3ca0000000000000)    // 2^−53
CONST4(p52bias, $0x43300000000003fe) // 2^52 + 1022
CONST4(mantMask, $0x000fffffffffffff)

// math/log_amd64.s's constants, bit for bit.
CONST4(hsqrt2, $0x3fe6a09e667f3bcd) // √2/2
CONST4(ln2Hi, $0x3fe62e42fee00000)
CONST4(ln2Lo, $0x3dea39ef35793c76)
CONST4(logL1, $0x3fe5555555555593)
CONST4(logL2, $0x3fd999999997fa04)
CONST4(logL3, $0x3fd2492494229359)
CONST4(logL4, $0x3fcc71c51d8e78af)
CONST4(logL5, $0x3fc7466496cb03de)
CONST4(logL6, $0x3fc39a09d078c69f)
CONST4(logL7, $0x3fc2f112df3e5244)

// math/sin.go's cos: 2π and 4/π as Go rounds them, the three parts of
// π/4, and the _sin and _cos coefficients.
CONST4(twoPi, $0x401921fb54442d18)
CONST4(fourOverPi, $0x3ff45f306dc9c883)
CONST4(pi4A, $0x3fe921fb40000000)
CONST4(pi4B, $0x3e64442d00000000)
CONST4(pi4C, $0x3ce8469898cc5170)
CONST4(sin0, $0x3de5d8fd1fd19ccd)
CONST4(sin1, $0xbe5ae5e5a9291f5d)
CONST4(sin2, $0x3ec71de3567d48a1)
CONST4(sin3, $0xbf2a01a019bfdf03)
CONST4(sin4, $0x3f8111111110f7d0)
CONST4(sin5, $0xbfc5555555555548)
CONST4(cos0, $0xbda8fa49a0861a9b)
CONST4(cos1, $0x3e21ee9d7b4e3f05)
CONST4(cos2, $0xbe927e4f7eac4bc6)
CONST4(cos3, $0x3efa01a019c844f5)
CONST4(cos4, $0xbf56c16c16c14f91)
CONST4(cos5, $0x3fa555555555554b)

CONST4(half, $0x3fe0000000000000)
CONST4(one, $0x3ff0000000000000)
CONST4(two, $0x4000000000000000)
CONST4(minusTwo, $0xc000000000000000)
CONST4(signBit, $0x8000000000000000)

// One int32 per lane of an octant vector.
DATA oneD<>+0(SB)/4, $1
DATA oneD<>+4(SB)/4, $1
DATA oneD<>+8(SB)/4, $1
DATA oneD<>+12(SB)/4, $1
GLOBL oneD<>(SB), RODATA|NOPTR, $16

// MUL64 is Z ← Z·C mod 2^64 in each 64-bit lane, for a constant C whose
// low and high 32-bit halves are the low halves of CL's and CH's lanes:
// lo·lo + (hi(Z)·lo(C) + lo(Z)·hi(C))·2^32. T and U are clobbered.
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

// DRAW turns the splitmix64 counters in Z into UnitFloat64 of their
// output in U: the output mix, then u = r>>11 < 2^53 as 2^52 + lo32(u)
// and 2^84 + hi(u)·2^32 float64 bit patterns, whose difference of magic
// constants is exact and whose sum is u; the scaling by 2^−53 is exact
// too. T is clobbered.
#define DRAW(Z, T, U) \
	XORSHIFT(30, Z, T)                       \
	MUL64(Z, mul1Lo<>(SB), mul1Hi<>(SB), T, U) \
	XORSHIFT(27, Z, T)                       \
	MUL64(Z, mul2Lo<>(SB), mul2Hi<>(SB), T, U) \
	XORSHIFT(31, Z, T)                       \
	VPSRLQ   $11, Z, Z                       \
	VPBLENDD $0xaa, p52<>(SB), Z, T          \
	VPSRLQ   $32, Z, U                       \
	VPOR     p84<>(SB), U, U                 \
	VSUBPD   p84p52<>(SB), U, U              \
	VADDPD   T, U, U                         \
	VMULPD   pm53<>(SB), U, U

// HORNER is one Horner step: P ← P·Z + c.
#define HORNER(c, Z, P) \
	VMULPD Z, P, P \
	VADDPD c, P, P

// func normAVX2(dst *float32, n uintptr, state uint64, std float32) (done uintptr, next uint64)
//
// n is a whole number of groups, n >= 4. AX counts the elements
// written; Y0 holds the state in every lane, X15 std in every lane.
TEXT ·normAVX2(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VPBROADCASTQ state+16(FP), Y0
	VBROADCASTSS std+24(FP), X15
	XORQ         AX, AX

	PCALIGN $32
group:
	// u1, and the bail: a u1 of 0 is Norm's to redraw.
	VPADDQ    u1Lanes<>(SB), Y0, Y1
	DRAW(Y1, Y2, Y3)
	VXORPD    Y2, Y2, Y2
	VCMPPD    $0, Y2, Y3, Y2
	VMOVMSKPD Y2, DX
	TESTL     DX, DX
	JNZ       out

	// u2, and the state past the group's eight draws.
	VPADDQ u2Lanes<>(SB), Y0, Y1
	VPADDQ advance<>(SB), Y0, Y0
	DRAW(Y1, Y2, Y4)

	// log(u1), as math/log_amd64.s. frexp: f1 = u1's mantissa with the
	// exponent of ½, k = the biased exponent − 1022, as float64 through
	// 2^52 + e − (2^52 + 1022).
	VANDPD  mantMask<>(SB), Y3, Y5
	VORPD   half<>(SB), Y5, Y5
	VPSRLQ  $52, Y3, Y6
	VPOR    p52<>(SB), Y6, Y6
	VSUBPD  p52bias<>(SB), Y6, Y6
	// Where !(√2/2 < f1) (CMPSD predicate 5): k −= 1, f1 ·= 2.
	VMOVUPD hsqrt2<>(SB), Y7
	VCMPPD  $5, Y5, Y7, Y7
	VANDPD  one<>(SB), Y7, Y7
	VSUBPD  Y7, Y6, Y6
	VADDPD  one<>(SB), Y7, Y7
	VMULPD  Y7, Y5, Y5
	VSUBPD  one<>(SB), Y5, Y5 // f = f1 − 1
	VADDPD  two<>(SB), Y5, Y7
	VDIVPD  Y7, Y5, Y7        // s = f/(2+f)
	VMULPD  Y7, Y7, Y8        // s2
	VMULPD  Y8, Y8, Y9        // s4
	VMULPD  logL7<>(SB), Y9, Y10
	VADDPD  logL5<>(SB), Y10, Y10
	HORNER(logL3<>(SB), Y9, Y10)
	HORNER(logL1<>(SB), Y9, Y10)
	VMULPD  Y10, Y8, Y8       // t1 = s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD  logL6<>(SB), Y9, Y10
	VADDPD  logL4<>(SB), Y10, Y10
	HORNER(logL2<>(SB), Y9, Y10)
	VMULPD  Y10, Y9, Y9       // t2 = s4·(L2 + s4·(L4 + s4·L6))
	VADDPD  Y9, Y8, Y8        // R = t1 + t2
	VMULPD  half<>(SB), Y5, Y9
	VMULPD  Y5, Y9, Y9        // hfsq = ½·f·f
	VADDPD  Y9, Y8, Y8
	VMULPD  Y8, Y7, Y7        // s·(hfsq+R)
	VMULPD  ln2Lo<>(SB), Y6, Y8
	VADDPD  Y8, Y7, Y7        // s·(hfsq+R) + k·Ln2Lo
	VSUBPD  Y7, Y9, Y9
	VSUBPD  Y5, Y9, Y9        // (hfsq − (…)) − f
	VMULPD  ln2Hi<>(SB), Y6, Y6
	VSUBPD  Y9, Y6, Y3        // log(u1) = k·Ln2Hi − (…)
	VMULPD  minusTwo<>(SB), Y3, Y3
	VSQRTPD Y3, Y3            // √(−2·log u1)

	// cos(x), x = 2π·u2 in [0, 2π), as math/sin.go's cos. The octant
	// j = ⌊x·4/π⌋ (at most 8), bumped by one when odd; y is its float64.
	VMULPD      twoPi<>(SB), Y4, Y4
	VMULPD      fourOverPi<>(SB), Y4, Y5
	VCVTTPD2DQY Y5, X5
	VPAND       oneD<>(SB), X5, X6
	VPADDD      X6, X5, X5
	VCVTDQ2PD   X5, Y6
	VPMOVZXDQ   X5, Y5
	// z = ((x − y·PI4A) − y·PI4B) − y·PI4C, zz = z·z.
	VMULPD      pi4A<>(SB), Y6, Y7
	VSUBPD      Y7, Y4, Y4
	VMULPD      pi4B<>(SB), Y6, Y7
	VSUBPD      Y7, Y4, Y4
	VMULPD      pi4C<>(SB), Y6, Y7
	VSUBPD      Y7, Y4, Y4
	VMULPD      Y4, Y4, Y6
	// The sine polynomial: z + z·zz·P(zz).
	VMULPD      sin0<>(SB), Y6, Y7
	VADDPD      sin1<>(SB), Y7, Y7
	HORNER(sin2<>(SB), Y6, Y7)
	HORNER(sin3<>(SB), Y6, Y7)
	HORNER(sin4<>(SB), Y6, Y7)
	HORNER(sin5<>(SB), Y6, Y7)
	VMULPD      Y6, Y4, Y8
	VMULPD      Y7, Y8, Y8
	VADDPD      Y8, Y4, Y8
	// The cosine polynomial: (1 − ½·zz) + zz·zz·Q(zz).
	VMULPD      cos0<>(SB), Y6, Y7
	VADDPD      cos1<>(SB), Y7, Y7
	HORNER(cos2<>(SB), Y6, Y7)
	HORNER(cos3<>(SB), Y6, Y7)
	HORNER(cos4<>(SB), Y6, Y7)
	HORNER(cos5<>(SB), Y6, Y7)
	VMULPD      Y6, Y6, Y9
	VMULPD      Y7, Y9, Y9
	VMULPD      half<>(SB), Y6, Y6
	VMOVUPD     one<>(SB), Y7
	VSUBPD      Y6, Y7, Y7
	VADDPD      Y9, Y7, Y7
	// The sine where j&2 (bit 1 of j on bit 63), negated where j is 2
	// or 4 (bit 1 xor bit 2 of j).
	VPSLLQ      $62, Y5, Y6
	VBLENDVPD   Y6, Y8, Y7, Y7
	VPSLLQ      $61, Y5, Y5
	VPXOR       Y5, Y6, Y6
	VPAND       signBit<>(SB), Y6, Y6
	VXORPD      Y6, Y7, Y7

	// float32(√(…)·cos(…))·std.
	VMULPD     Y7, Y3, Y3
	VCVTPD2PSY Y3, X3
	VMULPS     X15, X3, X3
	VMOVUPS    X3, (DI)(AX*4)
	ADDQ       $4, AX
	CMPQ       AX, CX
	JB         group

out:
	MOVQ    AX, done+32(FP)
	VMOVQ   X0, next+40(FP)
	VZEROUPPER
	RET
