package rng

import "math"

// The Box-Muller transform behind Norm runs on the two functions below
// instead of math.Log and math.Cos. On amd64 they return the same bits
// as those (go test ./rng -run Replica); elsewhere the math package may
// compute differently — arm64 fuses its multiply-adds into FMADD/FMSUB,
// which round once where amd64 rounds twice — and that difference
// sometimes survives Norm's float32 rounding, so weights and synthetic
// data would differ across hosts. Here every product is rounded by an
// explicit float64(...) conversion, which forbids the fusion
// (scripts/check_nofma.sh ./rng), so Norm gives the same bits on every
// architecture. They are also the reference tensor.FillNorm's AVX2
// kernel is held to, operation for operation.

// logUnit is math.Log for x in Norm's domain, a positive normal float64,
// in the operations of math/log_amd64.s and their order: frexp by bit
// operations, the adjust when !(√2/2 < f1) (the assembly's CMPSD
// predicate 5, which adjusts f1 = √2/2 too), s = f/(2+f), the two
// Horner halves and the k·Ln2Hi − (…) tail.
func logUnit(x float64) float64 {
	const (
		hsqrt2 = 7.07106781186547524401e-01 // 0x3fe6a09e667f3bcd
		ln2Hi  = 6.93147180369123816490e-01 // 0x3fe62e42fee00000
		ln2Lo  = 1.90821492927058770002e-10 // 0x3dea39ef35793c76
		l1     = 6.666666666666735130e-01   // 0x3fe5555555555593
		l2     = 3.999999999940941908e-01   // 0x3fd999999997fa04
		l3     = 2.857142874366239149e-01   // 0x3fd2492494229359
		l4     = 2.222219843214978396e-01   // 0x3fcc71c51d8e78af
		l5     = 1.818357216161805012e-01   // 0x3fc7466496cb03de
		l6     = 1.531383769920937332e-01   // 0x3fc39a09d078c69f
		l7     = 1.479819860511658591e-01   // 0x3fc2f112df3e5244
	)
	b := math.Float64bits(x)
	f1 := math.Float64frombits(b&(1<<52-1) | 0x3fe0000000000000)
	k := float64(int(b>>52&0x7ff) - 0x3fe)
	if !(hsqrt2 < f1) {
		k--
		f1 = float64(f1 * 2)
	}
	f := f1 - 1
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (float64(s4*(float64(s4*(float64(s4*l7)+l5))+l3)) + l1))
	t2 := float64(s4 * (float64(s4*(float64(s4*l6)+l4)) + l2))
	r := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+r)) + float64(k*ln2Lo))) - f)
}

// cosTurn is math.Cos for 0 ≤ x < 2π, as math/sin.go's cos computes it
// there: the octant j = ⌊x·4/π⌋, bumped to the next one when odd, the
// three-part π/4 reduction, then the sine polynomial for octants 2 and
// 6 and the cosine one otherwise, negated for octants 2 and 4.
func cosTurn(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000, π/4 split into three parts
		pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
		pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170
	)
	j := uint64(float64(x * (4 / math.Pi)))
	y := float64(j)
	if j&1 == 1 {
		j++
		y++
	}
	j &= 7
	z := ((x - float64(y*pi4A)) - float64(y*pi4B)) - float64(y*pi4C)
	zz := float64(z * z)
	if j&2 != 0 {
		y = z + float64(float64(z*zz)*horner(&sinCoef, zz))
	} else {
		y = (1 - float64(0.5*zz)) + float64(float64(zz*zz)*horner(&cosCoef, zz))
	}
	if j == 2 || j == 4 {
		y = -y
	}
	return y
}

// sinCoef and cosCoef are math/sin.go's _sin and _cos.
var (
	sinCoef = [6]float64{
		1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
		-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
		2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
		-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
		8.33333333332211858878e-3,  // 0x3f8111111110f7d0
		-1.66666666666666307295e-1, // 0xbfc5555555555548
	}
	cosCoef = [6]float64{
		-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
		2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
		-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
		2.48015872888517045348e-5,   // 0x3efa01a019c844f5
		-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
		4.16666666666665929218e-2,   // 0x3fa555555555554b
	}
)

// horner is ((((c0·z + c1)·z + c2)·z + c3)·z + c4)·z + c5, each product
// rounded.
func horner(c *[6]float64, z float64) float64 {
	p := c[0]
	for _, ci := range c[1:] {
		p = float64(p*z) + ci
	}
	return p
}
