package tensor

//go:noescape
func reluAVX2(dst, src *float32, n uintptr)

//go:noescape
func reluGradAVX2(dx, x, dout *float32, n uintptr)

//go:noescape
func maxPool2x2AVX2(dst *float32, argmax *int32, src *float32, n uintptr, lanes *[16]int32, ow, w, stepX, stepO uintptr)

//go:noescape
func batchNormApplyAVX2(y, xhat, x *float32, sp, c uintptr, mean, inv, gamma, beta *float32)

//go:noescape
func batchNormInputGradAVX2(dx, dy, xhat *float32, sp, c uintptr, gi, meanDy, meanDyXhat *float32)

//go:noescape
func bnSums8AVX2(acc *[8]float64, x *float32, sp, rows, stride uintptr)

//go:noescape
func bnSquares8AVX2(acc *[8]float64, x *float32, sp, rows, stride uintptr, mean *[8]float32)

//go:noescape
func bnGradSums8AVX2(acc *[16]float64, dy, xhat *float32, sp, rows, stride uintptr)

// reluAsm sets the body of dst (vecBody) on the AVX2 kernel and returns
// its length, in vecChunk calls. The lengths were checked by the
// caller, as in the functions below.
func reluAsm(dst, src []float32) int {
	n := vecBody(len(dst))
	for i := 0; i < n; i += vecChunk {
		reluAVX2(&dst[i], &src[i], uintptr(min(vecChunk, n-i)))
	}
	return n
}

func reluGradAsm(dx, x, dout []float32) int {
	n := vecBody(len(dx))
	for i := 0; i < n; i += vecChunk {
		reluGradAVX2(&dx[i], &x[i], &dout[i], uintptr(min(vecChunk, n-i)))
	}
	return n
}

// maxPool2x2Asm pools the body of dst (vecBody outputs) of one image of
// width w with the 2×2 window at stride 2 and returns its length. The
// kernel tracks, per lane, its output's column ox and the flat index o
// of its first tap, 2·ox + 2w·(output row), and moves both eight
// outputs on per vector (gridLanes): ox by 8 mod ow and o by twice that
// plus 2w per whole output row in 8; a column that passes ow wraps to
// the next output row, which adds w more to o (2w for the row less
// 2·ow for the column). The channels stack as output rows do, as the
// height is even.
func maxPool2x2Asm(dst []float32, argmax []int32, src []float32, w int) int {
	n := vecBody(len(dst))
	ow := w / 2
	stepX := 8 % ow
	stepO := 2*stepX + 8/ow*2*w
	for q := 0; q < n; q += vecChunk {
		grid := gridLanes(q, ow)
		var lanes [16]int32
		for i := range 8 {
			lanes[i], lanes[8+i] = grid[i], 2*grid[i]+grid[8+i]*int32(2*w)
		}
		maxPool2x2AVX2(&dst[q], &argmax[q], &src[0], uintptr(min(vecChunk, n-q)), &lanes,
			uintptr(ow), uintptr(w), uintptr(stepX), uintptr(stepO))
	}
	return n
}

// batchNormApplyAsm runs BatchNormApply on the AVX2 kernel, whole
// channels of at most vecChunk elements (or one channel) per call, and
// reports whether it did: not without AVX2. The lengths were checked
// by the caller, as in batchNormInputGradAsm.
func batchNormApplyAsm(y, xhat, x, mean, inv, gamma, beta []float32) bool {
	if !useAVX2 {
		return false
	}
	if len(x) == 0 {
		return true
	}
	sp := len(x) / len(mean)
	per := max(1, vecChunk/sp)
	for c := 0; c < len(mean); c += per {
		at := c * sp
		batchNormApplyAVX2(&y[at], &xhat[at], &x[at], uintptr(sp), uintptr(min(per, len(mean)-c)), &mean[c], &inv[c], &gamma[c], &beta[c])
	}
	return true
}

func batchNormInputGradAsm(dx, dy, xhat, gi, meanDy, meanDyXhat []float32) bool {
	if !useAVX2 {
		return false
	}
	if len(dx) == 0 {
		return true
	}
	sp := len(dx) / len(gi)
	per := max(1, vecChunk/sp)
	for c := 0; c < len(gi); c += per {
		at := c * sp
		batchNormInputGradAVX2(&dx[at], &dy[at], &xhat[at], uintptr(sp), uintptr(min(per, len(gi)-c)), &gi[c], &meanDy[c], &meanDyXhat[c])
	}
	return true
}

// bnRowsPerCall bounds the rows one statistics kernel call sums over
// eight channels of run length sp to about vecChunk values (at least
// one row).
func bnRowsPerCall(sp int) int { return max(1, vecChunk/(8*sp)) }

// batchNormStatsAsm sets the statistics of the channels in whole groups
// of eight on the AVX2 kernels and returns how many it set: none without
// AVX2 or rows. The shapes were checked by the caller, as in
// batchNormGradSumsAsm.
func batchNormStatsAsm(mean, variance []float32, x *Matrix, count float64) int {
	if !useAVX2 || x.Rows == 0 {
		return 0
	}
	c := len(mean)
	sp := x.Cols / c
	per := bnRowsPerCall(sp)
	for ch := 0; ch+8 <= c; ch += 8 {
		var acc [8]float64
		for r := 0; r < x.Rows; r += per {
			bnSums8AVX2(&acc, &x.Data[r*x.Cols+ch*sp], uintptr(sp), uintptr(min(per, x.Rows-r)), uintptr(x.Cols))
		}
		var m [8]float32
		for i, sum := range acc {
			m[i] = float32(sum / count)
		}
		acc = [8]float64{}
		for r := 0; r < x.Rows; r += per {
			bnSquares8AVX2(&acc, &x.Data[r*x.Cols+ch*sp], uintptr(sp), uintptr(min(per, x.Rows-r)), uintptr(x.Cols), &m)
		}
		for i, sq := range acc {
			mean[ch+i], variance[ch+i] = m[i], float32(sq/count)
		}
	}
	return c &^ 7
}

func batchNormGradSumsAsm(sumDy, sumDyXhat []float32, dy, xhat *Matrix) int {
	if !useAVX2 || dy.Rows == 0 {
		return 0
	}
	c := len(sumDy)
	sp := dy.Cols / c
	per := bnRowsPerCall(sp)
	for ch := 0; ch+8 <= c; ch += 8 {
		var acc [16]float64
		for r := 0; r < dy.Rows; r += per {
			at := r*dy.Cols + ch*sp
			bnGradSums8AVX2(&acc, &dy.Data[at], &xhat.Data[at], uintptr(sp), uintptr(min(per, dy.Rows-r)), uintptr(dy.Cols))
		}
		for i := range 8 {
			sumDy[ch+i], sumDyXhat[ch+i] = float32(acc[i]), float32(acc[8+i])
		}
	}
	return c &^ 7
}
