package tensor

import (
	"fmt"
	"math"
)

// The activation kernels: the logistic function and the hyperbolic
// tangent over float32 slices, the gate activations of the LSTM. Each
// element is defined by the scalar below, which rounds the float64
// result of the math package to float32:
//
//	sigmoid(v) = float32(1 / (1 + math.Exp(-float64(v))))
//	tanh(v)    = float32(math.Tanh(float64(v)))
//
// On amd64 with AVX2 the kernels in activation_amd64.s evaluate these
// in float64 lanes, four per vector and two vectors per iteration, and
// leave the last len%8 elements to the portable loops below; everywhere
// else the portable loops run alone. For every non-NaN input the kernel
// returns the scalar's bits; for a NaN it returns a NaN.
//
// The kernels replay math.Exp's amd64 assembly (Shibata's method: the
// reduction by k·ln2 in two parts, an eighth-order Taylor polynomial of
// r/16, four squarings (y ← y·(y+2)), scaling by 2^k) with separately
// rounded IEEE operations, and math.Tanh's Go code on top of it: the
// rational x + x·s·P(s)/Q(s) below |x| = 0.625, 1 − 2/(e^{2|x|}+1) with
// the sign of x above it, x itself for ±0. They use no FMA, so they
// give one answer on every AVX2 host. math.Exp does not: on a host with
// FMA (math's useFMA) it takes a fused path whose float64 result can
// differ from the IEEE-only one in the last bits. A float64 error that
// small moves a float32 rounding only for a result within it of a
// float32 rounding boundary (a midpoint between two float32 values),
// and an exhaustive comparison over all 2^32 inputs
// (TestActivationExhaustive, run with -exhaustive) finds no such input:
// after the float32 rounding sigmoid and tanh apply, the kernels equal
// the scalar whichever path math.Exp took, so the float32 activations
// are host-independent even where math.Exp is not.
//
// The kernels clamp their arguments where the scalar's float64 result
// no longer moves its float32 rounding, which keeps math.Exp's
// overflow, underflow and special-value branches out of the vector
// code:
//
//   - sigmoid clamps −v to [−40, 105]. Below −40, e^{−v} < 2^−57 and
//     1 + e^{−v} rounds to 1 in float64, so the result is exactly 1
//     (−Inf included). Above 105, 1/(1+e^{−v}) < 2.6·10^−46, under
//     half the smallest float32 denormal (7·10^−46), so the result
//     rounds to +0 (+Inf and math.Exp's overflow to +Inf included);
//     1/(1+e^100) ≈ 3.7·10^−44 would still be a denormal.
//   - tanh clamps |x| to 20. Above it, 2/(e^{2|x|}+1) < 2^−56 and
//     1 − 2/(e^{2|x|}+1) rounds to 1 in float64, which is what the
//     scalar returns for |x| > 44.01 and what it computes up to there;
//     float32 tanh is already ±1 from |x| ≈ 9.01.
//
// NaN passes through both clamps (the NaN operand is the one VMINPD and
// VMAXPD return) and through the arithmetic.

// Sigmoid sets dst[i] to the logistic function of src[i]. dst and src
// must have the same length; they may be the same slice, but must not
// otherwise overlap.
func Sigmoid(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Sigmoid length mismatch %d vs %d", len(dst), len(src)))
	}
	n := sigmoidAsm(dst, src)
	sigmoidGo(dst[n:], src[n:])
}

// Tanh sets dst[i] to the hyperbolic tangent of src[i]. dst and src
// must have the same length; they may be the same slice, but must not
// otherwise overlap.
func Tanh(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Tanh length mismatch %d vs %d", len(dst), len(src)))
	}
	n := tanhAsm(dst, src)
	tanhGo(dst[n:], src[n:])
}

// The portable loops: the scalar definitions above, and the reference
// the kernels are tested against bit for bit (activation_test.go).

func sigmoidGo(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
}

func tanhGo(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		dst[i] = float32(math.Tanh(float64(v)))
	}
}

// LSTMGateGrads is the element-wise step of an LSTM's backpropagation
// through time for one sample at one timestep. From the gradient dh of
// the hidden state, the cell gradient dc carried from the next
// timestep, the gate activations i, f, g, o, tanh of the cell state tc
// and the previous cell state cp (all of the hidden size h), it writes
// the gradients of the gate pre-activations to dz (4h: the input,
// forget, cell-candidate and output runs, the gate order of z) and
// replaces dc by the cell gradient carried to the previous timestep.
// Per element, in this order, each operation rounded to float32:
//
//	dcj ← dc + dh·o·(1 − tc·tc)
//	dz  ← dcj·g·i·(1 − i), dcj·cp·f·(1 − f), dcj·i·(1 − g·g), dh·tc·o·(1 − o)
//	dc  ← dcj·f
//
// with the products taken left to right. On amd64 with AVX2 the kernel
// in activation_amd64.s runs eight elements per vector, one lane per
// element, so each lane computes exactly the portable loop.
func LSTMGateGrads(dz, dc, dh, i, f, g, o, tc, cp []float32) {
	h := len(dc)
	if len(dz) != 4*h || len(dh) != h || len(i) != h || len(f) != h || len(g) != h ||
		len(o) != h || len(tc) != h || len(cp) != h {
		panic(fmt.Sprintf("tensor: LSTMGateGrads lengths dz=%d dc=%d dh=%d i=%d f=%d g=%d o=%d tc=%d cp=%d",
			len(dz), h, len(dh), len(i), len(f), len(g), len(o), len(tc), len(cp)))
	}
	n := lstmGateGradsAsm(dz, dc, dh, i, f, g, o, tc, cp)
	lstmGateGradsGo(dz[n:h], dz[h+n:2*h], dz[2*h+n:3*h], dz[3*h+n:], dc[n:], dh[n:], i[n:], f[n:], g[n:], o[n:], tc[n:], cp[n:])
}

// lstmGateGradsGo is LSTMGateGrads's portable loop, with the four runs
// of dz passed apart. The float32 conversions forbid fusing a product
// with the following add or subtract (see vec.go).
func lstmGateGradsGo(dzi, dzf, dzg, dzo, dc, dh, i, f, g, o, tc, cp []float32) {
	h := len(dc)
	dzi, dzf, dzg, dzo = dzi[:h], dzf[:h], dzg[:h], dzo[:h]
	dh, i, f, g, o, tc, cp = dh[:h], i[:h], f[:h], g[:h], o[:h], tc[:h], cp[:h]
	for j := range dc {
		do := dh[j] * tc[j]
		dcj := dc[j] + float32(dh[j]*o[j]*(1-float32(tc[j]*tc[j])))
		di := dcj * g[j]
		df := dcj * cp[j]
		dg := dcj * i[j]
		dzi[j] = di * i[j] * (1 - i[j])
		dzf[j] = df * f[j] * (1 - f[j])
		dzg[j] = dg * (1 - float32(g[j]*g[j]))
		dzo[j] = do * o[j] * (1 - o[j])
		dc[j] = dcj * f[j]
	}
}
