package tensor

import (
	"fmt"
	"math"
)

// The CNN kernels: the element-wise and windowed passes of a
// convolutional network's non-GEMM layers (ReLU, 2×2 max pooling, the
// batch-norm statistics, normalisation and input gradient). Each is
// defined by its portable loop below, which is also the reference the
// kernels are tested against on raw bits (cnn_test.go). On amd64 with
// AVX2 the kernels in cnn_amd64.s run eight lanes at a time, each lane
// computing exactly the loop's operations in the loop's order;
// everywhere else the portable loops run alone.
//
//   - ReLU is x > 0 ? x : 0. The kernel's VMAXPS takes x as its first
//     source and 0 as its second and returns the second on NaN or on
//     equal zeros, so NaN and −0 give +0 as the comparison does.
//     ReLUGrad is the ordered mask x > 0 ANDed onto dout: dout's bits
//     or +0. The last len%8 elements run on the loops.
//   - MaxPool visits a window's taps in (ky, kx) order against a running
//     best that starts at −Inf, and a tap wins only when it is strictly
//     greater (an ordered compare): the first of equal maxima wins, and
//     a NaN never does. The winner's flat index starts at the first tap,
//     so a window of NaNs and −Infs reports −Inf at its first tap. The
//     kernel covers the 2×2 window at stride 2 over even heights and
//     widths, gathering each tap for eight output positions and
//     blending value and index on the same compares; the last len%8
//     outputs and every other geometry run on the loop.
//   - BatchNormStats and BatchNormGradSums keep one float64 chain of
//     adds per channel in (row, position) order. Their kernels take
//     eight channels at a time, lanes across channels (four positions
//     of four channels loaded and transposed into one vector per
//     position), so the chains run side by side and each is the loop's;
//     channels past the last group of eight run on the loop.
//   - BatchNormApply and BatchNormInputGrad are chains of separately
//     rounded float32 operations (see vec.go on fusing) over a row of
//     channel runs. Their kernels run each channel's run eight at a
//     time and its last len%8 elements as one masked vector (VMASKMOVPS:
//     the lanes past the run are neither read nor written), so they take
//     the whole row in one call.

// ReLU sets dst[i] to src[i] when src[i] > 0 and to +0 otherwise (NaN
// and −0 included). dst and src must have the same length.
func ReLU(dst, src []float32) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: ReLU length mismatch %d vs %d", len(dst), len(src)))
	}
	n := reluAsm(dst, src)
	reluGo(dst[n:], src[n:])
}

// ReLUGrad sets dx[i] to dout[i] when x[i] > 0 and to +0 otherwise: the
// input gradient of ReLU at x. The slices must have the same length.
func ReLUGrad(dx, x, dout []float32) {
	if len(x) != len(dx) || len(dout) != len(dx) {
		panic(fmt.Sprintf("tensor: ReLUGrad length mismatch dx=%d x=%d dout=%d", len(dx), len(x), len(dout)))
	}
	n := reluGradAsm(dx, x, dout)
	reluGradGo(dx[n:], x[n:], dout[n:])
}

// PoolShape is the geometry of a max-pooling window over C×H×W images:
// a KH×KW window moved by StrideH and StrideW, positions that would
// leave the image dropped.
type PoolShape struct {
	C, H, W          int
	KH, KW           int
	StrideH, StrideW int
}

// OutH returns the pooled height.
func (p PoolShape) OutH() int { return (p.H-p.KH)/p.StrideH + 1 }

// OutW returns the pooled width.
func (p PoolShape) OutW() int { return (p.W-p.KW)/p.StrideW + 1 }

// OutLen returns the length of one pooled image, C·OutH·OutW.
func (p PoolShape) OutLen() int { return p.C * p.OutH() * p.OutW() }

// Validate reports a descriptive error when the geometry is
// inconsistent.
func (p PoolShape) Validate() error {
	if p.C <= 0 || p.H <= 0 || p.W <= 0 || p.KH <= 0 || p.KW <= 0 || p.StrideH <= 0 || p.StrideW <= 0 {
		return fmt.Errorf("tensor: pool shape has non-positive dims: %+v", p)
	}
	if p.KH > p.H || p.KW > p.W {
		return fmt.Errorf("tensor: pool window larger than the image: %+v", p)
	}
	return nil
}

// MaxPool pools one image src (CHW layout, length C·H·W) into dst
// (length OutLen, channel-major like src) and records in argmax the
// flat index into src of each output's winning tap.
func MaxPool(p PoolShape, dst []float32, argmax []int32, src []float32) {
	if len(src) != p.C*p.H*p.W || len(dst) != p.OutLen() || len(argmax) != len(dst) {
		panic(fmt.Sprintf("tensor: MaxPool sizes src=%d dst=%d argmax=%d for %+v", len(src), len(dst), len(argmax), p))
	}
	n := 0
	if p.KH == 2 && p.KW == 2 && p.StrideH == 2 && p.StrideW == 2 && p.H%2 == 0 && p.W%2 == 0 {
		n = maxPool2x2Asm(dst, argmax, src, p.W)
	}
	maxPoolGo(p, dst, argmax, src, n)
}

// BatchNormApply normalises one sample's row of channel runs and applies
// each channel's affine transform. The row holds len(mean) channels of
// len(x)/len(mean) contiguous values; channel c has coefficients
// mean[c], inv[c], gamma[c] and beta[c]. Per element, in this order,
// each operation rounded to float32:
//
//	xhat ← (x − mean)·inv
//	y    ← gamma·xhat + beta
//
// y, xhat and x must have the same length, a multiple of the
// coefficients' common length.
func BatchNormApply(y, xhat, x, mean, inv, gamma, beta []float32) {
	c := len(mean)
	if len(xhat) != len(y) || len(x) != len(y) || len(inv) != c || len(gamma) != c || len(beta) != c ||
		(c == 0 && len(x) != 0) || (c != 0 && len(x)%c != 0) {
		panic(fmt.Sprintf("tensor: BatchNormApply lengths y=%d xhat=%d x=%d mean=%d inv=%d gamma=%d beta=%d",
			len(y), len(xhat), len(x), c, len(inv), len(gamma), len(beta)))
	}
	if !batchNormApplyAsm(y, xhat, x, mean, inv, gamma, beta) {
		batchNormApplyGo(y, xhat, x, mean, inv, gamma, beta)
	}
}

// BatchNormStats sets mean[c] and variance[c] to the batch statistics of
// channel c of x, whose rows hold len(mean) channel runs of
// x.Cols/len(mean) values each: with n the number of values a channel
// has over all rows,
//
//	mean     = float32(Σ float64(x) / n)
//	variance = float32(Σ d·d / n),  d = float64(x − mean)
//
// each Σ one float64 chain of adds in (row, position) order, x − mean a
// float32 subtraction and d·d a float64 product. On amd64 with AVX2,
// groups of eight channels run on kernels with the eight channels'
// chains side by side in float64 lanes; each channel's chain is the
// loop's.
func BatchNormStats(mean, variance []float32, x *Matrix) {
	c := len(mean)
	if len(variance) != c || c == 0 || x.Cols%c != 0 {
		panic(fmt.Sprintf("tensor: BatchNormStats %d means, %d variances for %d columns", c, len(variance), x.Cols))
	}
	count := float64(x.Rows * (x.Cols / c))
	for ch := batchNormStatsAsm(mean, variance, x, count); ch < c; ch++ {
		batchNormStatsGo(mean, variance, x, ch, count)
	}
}

// BatchNormGradSums sets, for each channel c of dy and xhat (laid out as
// in BatchNormStats),
//
//	sumDy[c]     = float32(Σ float64(dy))
//	sumDyXhat[c] = float32(Σ float64(dy)·float64(xhat))
//
// each Σ one float64 chain of adds in (row, position) order, with
// kernels as in BatchNormStats.
func BatchNormGradSums(sumDy, sumDyXhat []float32, dy, xhat *Matrix) {
	c := len(sumDy)
	if len(sumDyXhat) != c || c == 0 || dy.Cols%c != 0 || xhat.Rows != dy.Rows || xhat.Cols != dy.Cols {
		panic(fmt.Sprintf("tensor: BatchNormGradSums %d and %d sums for %dx%d and %dx%d",
			c, len(sumDyXhat), dy.Rows, dy.Cols, xhat.Rows, xhat.Cols))
	}
	for ch := batchNormGradSumsAsm(sumDy, sumDyXhat, dy, xhat); ch < c; ch++ {
		batchNormGradSumsGo(sumDy, sumDyXhat, dy, xhat, ch)
	}
}

// BatchNormInputGrad is batch norm's input gradient over one sample's
// row of channel runs (laid out as in BatchNormApply), from the output
// gradient dy and the normalised input xhat: per element of channel c,
// in this order, each operation rounded to float32,
//
//	dx ← gi[c]·((dy − meanDy[c]) − xhat·meanDyXhat[c])
//
// where gi is gamma·inv and meanDy, meanDyXhat are the channel's means
// of dy and dy·xhat. dx, dy and xhat must have the same length, a
// multiple of the coefficients' common length.
func BatchNormInputGrad(dx, dy, xhat, gi, meanDy, meanDyXhat []float32) {
	c := len(gi)
	if len(dy) != len(dx) || len(xhat) != len(dx) || len(meanDy) != c || len(meanDyXhat) != c ||
		(c == 0 && len(dx) != 0) || (c != 0 && len(dx)%c != 0) {
		panic(fmt.Sprintf("tensor: BatchNormInputGrad lengths dx=%d dy=%d xhat=%d gi=%d meanDy=%d meanDyXhat=%d",
			len(dx), len(dy), len(xhat), c, len(meanDy), len(meanDyXhat)))
	}
	if !batchNormInputGradAsm(dx, dy, xhat, gi, meanDy, meanDyXhat) {
		batchNormInputGradGo(dx, dy, xhat, gi, meanDy, meanDyXhat)
	}
}

// The portable loops.

func reluGo(dst, src []float32) {
	src = src[:len(dst)]
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func reluGradGo(dx, x, dout []float32) {
	x, dout = x[:len(dx)], dout[:len(dx)]
	for i, v := range x {
		if v > 0 {
			dx[i] = dout[i]
		} else {
			dx[i] = 0
		}
	}
}

// maxPoolGo pools the outputs from index from on (channel-major, row by
// row) with the contract's tap order and compare.
func maxPoolGo(p PoolShape, dst []float32, argmax []int32, src []float32, from int) {
	oh, ow := p.OutH(), p.OutW()
	for r := from / ow; r < p.C*oh; r++ {
		top := r/oh*p.H*p.W + r%oh*p.StrideH*p.W // the window row of output row r
		for ox := max(from-r*ow, 0); ox < ow; ox++ {
			first := top + ox*p.StrideW
			best, bestIdx := float32(math.Inf(-1)), first
			for ky := 0; ky < p.KH; ky++ {
				tap := first + ky*p.W
				for kx := 0; kx < p.KW; kx++ {
					if v := src[tap+kx]; v > best {
						best, bestIdx = v, tap+kx
					}
				}
			}
			dst[r*ow+ox], argmax[r*ow+ox] = best, int32(bestIdx)
		}
	}
}

func batchNormApplyGo(y, xhat, x, mean, inv, gamma, beta []float32) {
	if len(mean) == 0 {
		return
	}
	sp := len(x) / len(mean)
	for c, m := range mean {
		lo, iv, g, bt := c*sp, inv[c], gamma[c], beta[c]
		for i, v := range x[lo : lo+sp] {
			h := (v - m) * iv
			xhat[lo+i] = h
			y[lo+i] = float32(g*h) + bt
		}
	}
}

func batchNormInputGradGo(dx, dy, xhat, gi, meanDy, meanDyXhat []float32) {
	if len(gi) == 0 {
		return
	}
	sp := len(dx) / len(gi)
	for c, g := range gi {
		lo, md, mdx := c*sp, meanDy[c], meanDyXhat[c]
		for i, d := range dy[lo : lo+sp] {
			dx[lo+i] = g * (d - md - float32(xhat[lo+i]*mdx))
		}
	}
}

// batchNormStatsGo sets channel ch's statistics of BatchNormStats.
func batchNormStatsGo(mean, variance []float32, x *Matrix, ch int, count float64) {
	sp := x.Cols / len(mean)
	var sum float64
	for s := 0; s < x.Rows; s++ {
		for _, v := range x.Row(s)[ch*sp : (ch+1)*sp] {
			sum += float64(v)
		}
	}
	m := float32(sum / count)
	var sq float64
	for s := 0; s < x.Rows; s++ {
		for _, v := range x.Row(s)[ch*sp : (ch+1)*sp] {
			d := float64(v - m)
			sq += float64(d * d)
		}
	}
	mean[ch], variance[ch] = m, float32(sq/count)
}

// batchNormGradSumsGo sets channel ch's sums of BatchNormGradSums.
func batchNormGradSumsGo(sumDy, sumDyXhat []float32, dy, xhat *Matrix, ch int) {
	sp := dy.Cols / len(sumDy)
	var sd, sdx float64
	for s := 0; s < dy.Rows; s++ {
		xh := xhat.Row(s)[ch*sp : (ch+1)*sp]
		for p, v := range dy.Row(s)[ch*sp : (ch+1)*sp] {
			d := float64(v)
			sd += d
			sdx += float64(d * float64(xh[p]))
		}
	}
	sumDy[ch], sumDyXhat[ch] = float32(sd), float32(sdx)
}
