package tensor

import (
	"fmt"
	"math"
)

// The vector kernels: element-wise updates over float32 slices, each
// element computed by the same separately rounded IEEE float32
// operations whichever code runs it (no FMA, see the package
// documentation). On amd64 with AVX2 they run eight lanes at a time in
// vec_amd64.s, one lane per element, and leave the last len%8 elements
// to the portable loops below — except Add, whose kernel takes them
// too; everywhere else the portable loops run alone. The loops are also the reference the kernels are tested
// against bit for bit (vec_test.go).

// Add accumulates src into dst element-wise: dst[i] += src[i]. The
// slices must have the same length. On AVX2 every element's addition
// has dst as its first operand, so where both are NaNs dst's NaN
// (quietened) is the result, whatever the length; quant's DecodeAdd
// relies on that to match a decode followed by Add.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Add length mismatch %d vs %d", len(dst), len(src)))
	}
	n := addAsm(dst, src)
	addGo(dst[n:], src[n:])
}

// Scale multiplies every element of x by a in place: x[i] *= a.
func Scale(x []float32, a float32) {
	n := scaleAsm(x, a)
	scaleGo(x[n:], a)
}

// MomentumStep is one step of SGD with classical momentum over a
// parameter w, its velocity v and its gradient g, with the gradient
// first multiplied by a (the 1/K average of a data-parallel step, or
// 1). Per element, in this order, each operation rounded to float32:
//
//	g ← a·g
//	d ← g + λ·w     (only when λ ≠ 0; otherwise d is g)
//	v ← μ·v − η·d
//	w ← w + v
//
// The scaled gradient is stored back to g, so g afterwards holds what
// the update consumed. λ = 0 runs without the decay term rather than
// adding 0·w, which would turn a −0 gradient into +0 and, against an
// infinite weight, into NaN. The slices must have the same length.
func MomentumStep(w, v, g []float32, a, mu, eta, lambda float32) {
	if len(v) != len(w) || len(g) != len(w) {
		panic(fmt.Sprintf("tensor: MomentumStep length mismatch w=%d v=%d g=%d", len(w), len(v), len(g)))
	}
	if lambda == 0 {
		n := momentumAsm(w, v, g, a, mu, eta)
		momentumGo(w[n:], v[n:], g[n:], a, mu, eta)
		return
	}
	n := momentumDecayAsm(w, v, g, a, mu, eta, lambda)
	momentumDecayGo(w[n:], v[n:], g[n:], a, mu, eta, lambda)
}

// MaxAbs returns the largest |x[i]|, or 0 for an empty slice. An
// element is taken iff |x[i]| > the maximum so far, so a NaN is never
// taken; the kernel's VMAXPS makes that same comparison per lane, and
// the largest of non-negative, non-NaN values is one value whichever
// order the lanes visit them in.
func MaxAbs(x []float32) float32 {
	n, m := maxAbsAsm(x)
	return maxAbsGo(x[n:], m)
}

// The portable loops. The float32 conversion around each product is
// what the language offers to forbid fusing it with the following add
// or subtract (arm64 would otherwise emit FMADDS/FMSUBS).

func addGo(dst, src []float32) {
	src = src[:len(dst)]
	for i, s := range src {
		dst[i] += s
	}
}

func scaleGo(x []float32, a float32) {
	for i := range x {
		x[i] *= a
	}
}

// maxAbsGo returns the largest of m and every |x[i]|.
func maxAbsGo(x []float32, m float32) float32 {
	for _, v := range x {
		// |v| by clearing the sign bit.
		if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > m {
			m = a
		}
	}
	return m
}

func momentumGo(w, v, g []float32, a, mu, eta float32) {
	v, g = v[:len(w)], g[:len(w)]
	for i := range w {
		gi := float32(a * g[i])
		g[i] = gi
		vi := float32(mu*v[i]) - float32(eta*gi)
		v[i] = vi
		w[i] += vi
	}
}

func momentumDecayGo(w, v, g []float32, a, mu, eta, lambda float32) {
	v, g = v[:len(w)], g[:len(w)]
	for i := range w {
		gi := float32(a * g[i])
		g[i] = gi
		d := gi + float32(lambda*w[i])
		vi := float32(mu*v[i]) - float32(eta*d)
		v[i] = vi
		w[i] += vi
	}
}
