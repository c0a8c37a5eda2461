package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/rng"
)

// cnnEdges are the inputs where the CNN kernels could part from their
// loops: both zeros, denormals of both signs, both infinities, NaNs of
// several payloads and signs, and values that tie with their
// neighbours.
var cnnEdges = func() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
		0x7f800000, 0xff800000,
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fbfffff, 0x7fc00abc, 0xffffffff,
	}
	edges := make([]float32, 0, len(bits)+6)
	for _, b := range bits {
		edges = append(edges, math.Float32frombits(b))
	}
	return append(edges, 1, 1, -1, 2, 2, math.MaxFloat32)
}()

// sameRaw reports identical bits, NaN payloads included: the selecting
// kernels (ReLU, max pooling) move values, they compute none.
func sameRaw(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }

// edgeRun returns n floats starting off into their backing array: the
// edge table rotated by rot, or seeded normals where specials is false.
func edgeRun(r *rng.RNG, n, off, rot int, specials bool) []float32 {
	x := make([]float32, off+n)[off:]
	for i := range x {
		if specials {
			x[i] = cnnEdges[(i+rot)%len(cnnEdges)]
		} else {
			x[i] = r.Norm(2)
		}
	}
	return x
}

// forPaths runs f once on the kernels (where the CPU has AVX2) and once
// with the switch off, on the portable loops alone.
func forPaths(t *testing.T, f func(t *testing.T)) {
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = avx2
			f(t)
		})
	}
}

func checkReLU(t testing.TB, src []float32) {
	t.Helper()
	want := make([]float32, len(src))
	reluGo(want, src)
	got := make([]float32, len(src)+1)[1:]
	ReLU(got, src)
	for i := range want {
		if !sameRaw(got[i], want[i]) {
			t.Fatalf("ReLU n=%d: element %d of %#08x gave %#08x, loop %#08x",
				len(src), i, math.Float32bits(src[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func checkReLUGrad(t testing.TB, x, dout []float32) {
	t.Helper()
	want := make([]float32, len(x))
	reluGradGo(want, x, dout)
	got := make([]float32, len(x)+3)[3:]
	ReLUGrad(got, x, dout)
	for i := range want {
		if !sameRaw(got[i], want[i]) {
			t.Fatalf("ReLUGrad n=%d: element %d (x %#08x, dout %#08x) gave %#08x, loop %#08x", len(x), i,
				math.Float32bits(x[i]), math.Float32bits(dout[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestReLUParity holds ReLU and ReLUGrad to their loops on raw bits:
// every length 0–40 at four start alignments with every edge value in
// every lane, and normals past the chunk boundary.
func TestReLUParity(t *testing.T) {
	forPaths(t, func(t *testing.T) {
		r := rng.New(41)
		for n := 0; n <= 40; n++ {
			for off := 0; off < 4; off++ {
				for rot := range cnnEdges {
					x := edgeRun(r, n, off, rot, true)
					checkReLU(t, x)
					checkReLUGrad(t, x, edgeRun(r, n, 3-off, 2*rot+1, true))
					checkReLUGrad(t, x, edgeRun(r, n, off, 0, false))
				}
			}
		}
		x := edgeRun(r, 1<<16+13, 1, 0, false)
		checkReLU(t, x)
		checkReLUGrad(t, x, edgeRun(r, len(x), 2, 0, false))
	})
}

// poolInput fills one c×h×w image from the edge table (ties, both
// zeros, infinities, NaNs) or, for a whole window at a time, with NaN
// and −Inf alone.
func poolInput(r *rng.RNG, n, off int) []float32 {
	x := make([]float32, off+n)[off:]
	nonFinite := []float32{float32(math.NaN()), float32(math.Inf(-1)), math.Float32frombits(0xffc00123)}
	for i := range x {
		if r.Intn(4) == 0 {
			x[i] = nonFinite[r.Intn(len(nonFinite))]
		} else {
			x[i] = cnnEdges[r.Intn(len(cnnEdges))]
		}
	}
	return x
}

func checkMaxPool(t testing.TB, p PoolShape, src []float32) {
	t.Helper()
	n := p.OutLen()
	want, wantIdx := make([]float32, n), make([]int32, n)
	maxPoolGo(p, want, wantIdx, src, 0)
	got, gotIdx := make([]float32, n+1)[1:], make([]int32, n+2)[2:]
	MaxPool(p, got, gotIdx, src)
	for i := range want {
		if !sameRaw(got[i], want[i]) || gotIdx[i] != wantIdx[i] {
			t.Fatalf("%+v: output %d is %#08x at %d, loop %#08x at %d",
				p, i, math.Float32bits(got[i]), gotIdx[i], math.Float32bits(want[i]), wantIdx[i])
		}
	}
}

// TestMaxPoolParity holds MaxPool to its loop on raw bits and winning
// indices: the kernel's 2×2 stride-2 geometry over every even height
// and width to 18 and 1–3 channels (output lengths 1–243, so every
// tail), at four start alignments, on inputs full of ties, zeros of
// both signs and windows of NaN and −Inf alone; and other geometries,
// which the loop runs on both paths.
func TestMaxPoolParity(t *testing.T) {
	forPaths(t, func(t *testing.T) {
		r := rng.New(43)
		for c := 1; c <= 3; c++ {
			for h := 2; h <= 18; h += 2 {
				for w := 2; w <= 18; w += 2 {
					p := PoolShape{C: c, H: h, W: w, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
					for off := 0; off < 4; off++ {
						checkMaxPool(t, p, poolInput(r, c*h*w, off))
					}
				}
			}
		}
		for _, p := range []PoolShape{
			{C: 2, H: 7, W: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
			{C: 2, H: 6, W: 7, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
			{C: 3, H: 7, W: 9, KH: 3, KW: 3, StrideH: 2, StrideW: 2},
			{C: 2, H: 5, W: 5, KH: 2, KW: 2, StrideH: 1, StrideW: 1},
			{C: 1, H: 4, W: 6, KH: 1, KW: 3, StrideH: 1, StrideW: 3},
		} {
			checkMaxPool(t, p, poolInput(r, p.C*p.H*p.W, 1))
		}
		p := PoolShape{C: 3, H: 192, W: 240, KH: 2, KW: 2, StrideH: 2, StrideW: 2} // past the chunk boundary
		checkMaxPool(t, p, poolInput(r, p.C*p.H*p.W, 0))
	})
}

// TestMaxPoolTies pins the contract's rules on both paths: the first of
// equal maxima wins (+0 and −0 are equal), a NaN never wins, and a
// window of NaN and −Inf alone gives −Inf at its first tap.
func TestMaxPoolTies(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	windows := []struct {
		taps [4]float32
		val  float32
		idx  int32
	}{
		{[4]float32{1, 1, 1, 1}, 1, 0},
		{[4]float32{0, 2, 2, 1}, 2, 1},
		{[4]float32{negZero, 0, 0, -1}, negZero, 0},
		{[4]float32{-1, 0, negZero, 0}, 0, 1},
		{[4]float32{nan, 3, nan, 3}, 3, 1},
		{[4]float32{nan, nan, nan, nan}, -inf, 0},
		{[4]float32{-inf, nan, -inf, nan}, -inf, 0},
		{[4]float32{nan, -inf, 5, inf}, inf, 3},
	}
	// Eight windows side by side in one 2×16 image fill one vector.
	p := PoolShape{C: 1, H: 2, W: 16, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	src := make([]float32, 32)
	for i, w := range windows {
		src[2*i], src[2*i+1], src[16+2*i], src[16+2*i+1] = w.taps[0], w.taps[1], w.taps[2], w.taps[3]
	}
	forPaths(t, func(t *testing.T) {
		dst, argmax := make([]float32, 8), make([]int32, 8)
		MaxPool(p, dst, argmax, src)
		for i, w := range windows {
			tap := []int32{0, 1, 16, 17}[w.idx] + int32(2*i)
			if !sameRaw(dst[i], w.val) || argmax[i] != tap {
				t.Errorf("window %v: %v at %d, want %v at %d", w.taps, dst[i], argmax[i], w.val, tap)
			}
		}
	})
}

// bnCoefficients are (mean, inv, gamma, beta) sets: a batch's, ones
// that make products overflow or underflow, and special values.
var bnCoefficients = [][4]float32{
	{0.25, 1.7, 1, 0},
	{-0.1, 3.3, 0.9, -0.2},
	{1e30, 1e10, 1e-30, 1e-38},
	{0, float32(math.Inf(1)), float32(math.Copysign(0, -1)), float32(math.NaN())},
}

// bnRowCoefficients returns the four coefficient slices of a row of c
// channels, channel i taking bnCoefficients[(i+rot) % 4]: a batch's,
// ones that overflow or underflow products, and special values.
func bnRowCoefficients(c, rot int) [4][]float32 {
	var k [4][]float32
	for j := range k {
		k[j] = make([]float32, c)
		for i := range c {
			k[j][i] = bnCoefficients[(i+rot)%len(bnCoefficients)][j]
		}
	}
	return k
}

func checkBatchNormApply(t testing.TB, x []float32, k [4][]float32) {
	t.Helper()
	n := len(x)
	wantY, wantH := make([]float32, n), make([]float32, n)
	batchNormApplyGo(wantY, wantH, x, k[0], k[1], k[2], k[3])
	gotY, gotH := make([]float32, n+1)[1:], make([]float32, n+2)[2:]
	BatchNormApply(gotY, gotH, x, k[0], k[1], k[2], k[3])
	for i := range x {
		if !sameBits(gotY[i], wantY[i]) || !sameBits(gotH[i], wantH[i]) {
			t.Fatalf("BatchNormApply c=%d n=%d: element %d of %#08x gave (%#08x, %#08x), loop (%#08x, %#08x)", len(k[0]), n, i,
				math.Float32bits(x[i]), math.Float32bits(gotY[i]), math.Float32bits(gotH[i]),
				math.Float32bits(wantY[i]), math.Float32bits(wantH[i]))
		}
	}
}

func checkBatchNormInputGrad(t testing.TB, dy, xhat []float32, k [4][]float32) {
	t.Helper()
	n := len(dy)
	want := make([]float32, n)
	batchNormInputGradGo(want, dy, xhat, k[0], k[1], k[2])
	got := make([]float32, n+3)[3:]
	BatchNormInputGrad(got, dy, xhat, k[0], k[1], k[2])
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("BatchNormInputGrad c=%d n=%d: element %d (dy %#08x, xhat %#08x) gave %#08x, loop %#08x", len(k[0]), n, i,
				math.Float32bits(dy[i]), math.Float32bits(xhat[i]), math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestBatchNormKernelsParity holds BatchNormApply and
// BatchNormInputGrad to their loops on float bits (any NaN for a NaN):
// rows of 1, 2 and 5 channels with every run length 0–40 at four start
// alignments, edge values in every lane or seeded normals, each channel
// under its own coefficient set, and a row past the chunk boundary.
func TestBatchNormKernelsParity(t *testing.T) {
	forPaths(t, func(t *testing.T) {
		r := rng.New(47)
		for _, c := range []int{1, 2, 5} {
			for sp := 0; sp <= 40; sp++ {
				for off := 0; off < 4; off++ {
					for rot := 0; rot < len(cnnEdges); rot += 5 {
						k := bnRowCoefficients(c, rot)
						x := edgeRun(r, c*sp, off, rot, true)
						checkBatchNormApply(t, x, k)
						checkBatchNormInputGrad(t, x, edgeRun(r, c*sp, 3-off, rot+2, true), k)
					}
					k := bnRowCoefficients(c, off)
					x := edgeRun(r, c*sp, off, 0, false)
					checkBatchNormApply(t, x, k)
					checkBatchNormInputGrad(t, x, edgeRun(r, c*sp, off, 0, false), k)
				}
			}
		}
		k := bnRowCoefficients(3, 1)
		x := edgeRun(r, 3*(1<<15+13), 1, 0, false)
		checkBatchNormApply(t, x, k)
		checkBatchNormInputGrad(t, x, edgeRun(r, len(x), 0, 0, false), k)
	})
}

// checkBatchNormStats runs BatchNormStats and BatchNormGradSums and
// their per-channel loops on x (as dy) and xhat, and fails on the first
// statistic whose float bits differ.
func checkBatchNormStats(t testing.TB, c int, x, xhat *Matrix) {
	t.Helper()
	wantM, wantV, wantD, wantE := make([]float32, c), make([]float32, c), make([]float32, c), make([]float32, c)
	count := float64(x.Rows * (x.Cols / c))
	for ch := range c {
		batchNormStatsGo(wantM, wantV, x, ch, count)
		batchNormGradSumsGo(wantD, wantE, x, xhat, ch)
	}
	gotM, gotV, gotD, gotE := make([]float32, c), make([]float32, c), make([]float32, c), make([]float32, c)
	BatchNormStats(gotM, gotV, x)
	BatchNormGradSums(gotD, gotE, x, xhat)
	for ch := range c {
		for _, v := range [][3]float32{{gotM[ch], wantM[ch], 0}, {gotV[ch], wantV[ch], 1}, {gotD[ch], wantD[ch], 2}, {gotE[ch], wantE[ch], 3}} {
			if !sameBits(v[0], v[1]) {
				t.Fatalf("%dx%d, %d channels: statistic %v of channel %d is %v (%#08x), loop %v (%#08x)", x.Rows, x.Cols, c,
					[]string{"mean", "variance", "sum dy", "sum dy·xhat"}[int(v[2])], ch, v[0], math.Float32bits(v[0]), v[1], math.Float32bits(v[1]))
			}
		}
	}
}

// bnMatrix returns a rows×cols matrix whose data starts off floats into
// its backing array, filled as edgeRun does.
func bnMatrix(r *rng.RNG, rows, cols, off, rot int, specials bool) *Matrix {
	return FromSlice(rows, cols, edgeRun(r, rows*cols, off, rot, specials))
}

// TestBatchNormStatsParity holds the statistics kernels to their
// per-channel loops on float bits: 8, 16 (the kernels' groups), 3 and
// 13 channels (a group and the loop's remainder), run lengths 1–13
// (every tail of the four-position blocks), 1–5 rows, at four start
// alignments, with seeded normals and with edge values (NaN, ±Inf, ±0,
// denormals) in every lane; and rows past the chunk boundary.
func TestBatchNormStatsParity(t *testing.T) {
	forPaths(t, func(t *testing.T) {
		r := rng.New(53)
		for _, c := range []int{3, 8, 13, 16} {
			for sp := 1; sp <= 13; sp++ {
				for rows := 1; rows <= 5; rows += 2 {
					for off := 0; off < 4; off++ {
						checkBatchNormStats(t, c, bnMatrix(r, rows, c*sp, off, 0, false), bnMatrix(r, rows, c*sp, 3-off, 0, false))
						for rot := 0; rot < len(cnnEdges); rot += 7 {
							checkBatchNormStats(t, c, bnMatrix(r, rows, c*sp, off, rot, true), bnMatrix(r, rows, c*sp, off, rot+3, off%2 == 0))
						}
					}
				}
			}
		}
		checkBatchNormStats(t, 8, bnMatrix(r, 300, 8*36, 1, 0, false), bnMatrix(r, 300, 8*36, 2, 0, false))
		checkBatchNormStats(t, 8, bnMatrix(r, 0, 8*36, 0, 0, false), bnMatrix(r, 0, 8*36, 0, 0, false))
	})
}

func TestBatchNormLengthMismatchPanics(t *testing.T) {
	k := bnRowCoefficients(3, 0)
	x := make([]float32, 12)
	for name, f := range map[string]func(){
		"apply row not whole channels": func() { BatchNormApply(x[:11], x[:11], x[:11], k[0], k[1], k[2], k[3]) },
		"apply short xhat":             func() { BatchNormApply(x, x[:9], x, k[0], k[1], k[2], k[3]) },
		"apply short beta":             func() { BatchNormApply(x, x, x, k[0], k[1], k[2], k[3][:2]) },
		"grad row not whole channels":  func() { BatchNormInputGrad(x[:10], x[:10], x[:10], k[0], k[1], k[2]) },
		"grad short meanDyXhat":        func() { BatchNormInputGrad(x, x, x, k[0], k[1], k[2][:1]) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

// sameRowsShapes are stride-1 geometries with output rows as wide as
// the input's: the benchmark CNN's two convolutions, a 5×5, one with
// more output rows than input rows, a 3×1 with a pad wider than the
// kernel, and a 7×7 over a 2×2 image, which leaves some taps no pixel.
var sameRowsShapes = []ConvShape{
	{InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{InC: 8, InH: 6, InW: 6, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	{InC: 2, InH: 5, InW: 9, OutC: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
	{InC: 2, InH: 7, InW: 4, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 1},
	{InC: 2, InH: 3, InW: 5, OutC: 1, KH: 3, KW: 1, StrideH: 1, StrideW: 1, PadH: 4, PadW: 0},
	{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 7, KW: 7, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3},
	{InC: 3, InH: 1, InW: 13, OutC: 1, KH: 1, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 1},
	{InC: 1, InH: 9, InW: 1, OutC: 1, KH: 3, KW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 0},
}

// TestIm2colSameRowsParity holds Im2col's contiguous-span lowering of
// the sameRows geometries to the general one-row-at-a-time loop on raw
// bits (NaN payloads included), on edge values and seeded normals.
func TestIm2colSameRowsParity(t *testing.T) {
	r := rng.New(49)
	for _, s := range sameRowsShapes {
		if !s.sameRows() {
			t.Fatalf("%+v is not a same-rows geometry", s)
		}
		for rot := 0; rot < len(cnnEdges); rot += 4 {
			img := edgeRun(r, s.InC*s.InH*s.InW, 1, rot, rot%8 == 0)
			want, got := New(s.PatchLen(), s.OutH()*s.OutW()), New(s.PatchLen(), s.OutH()*s.OutW())
			got.Fill(9) // padding must be written, not assumed
			im2colGo(s, img, want)
			Im2col(s, img, got)
			for i := range want.Data {
				if !sameRaw(got.Data[i], want.Data[i]) {
					t.Fatalf("%+v: column element %d is %#08x, loop %#08x", s, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}

// checkCol2im runs Col2im and its loop on copies of dst and fails on the
// first pixel whose float bits differ.
func checkCol2im(t testing.TB, s ConvShape, src *Matrix, dst []float32) {
	t.Helper()
	want, got := clone(dst), clone(dst)
	col2imGo(s, src, want)
	Col2im(s, src, got)
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%+v: pixel %d is %v (%#08x), loop %v (%#08x)", s, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestCol2imSameRowsParity holds Col2im's pixel-parallel kernel to the
// tap-by-tap loop on float bits: the sameRows geometries, with column
// values and starting pixels from the edge table or seeded normals,
// and all −0 (so a masked-off tap must leave a −0 pixel −0).
func TestCol2imSameRowsParity(t *testing.T) {
	forPaths(t, func(t *testing.T) {
		r := rng.New(50)
		for _, s := range sameRowsShapes {
			for rot := 0; rot < len(cnnEdges); rot += 3 {
				src := New(s.PatchLen(), s.OutH()*s.OutW())
				copy(src.Data, edgeRun(r, len(src.Data), 0, rot, rot%2 == 0))
				checkCol2im(t, s, src, edgeRun(r, s.InC*s.InH*s.InW, 0, rot+1, rot%3 == 0))
				checkCol2im(t, s, src, make([]float32, s.InC*s.InH*s.InW))
			}
			// All −0: a pixel stays −0 only if its taps' padding adds
			// nothing (−0 + +0 is +0).
			negZero := float32(math.Copysign(0, -1))
			src := New(s.PatchLen(), s.OutH()*s.OutW())
			src.Fill(negZero)
			dst := make([]float32, s.InC*s.InH*s.InW)
			for i := range dst {
				dst[i] = negZero
			}
			checkCol2im(t, s, src, dst)
		}
	})
}

// FuzzCNNKernelsParity feeds raw float bits, any length and start
// offset, to each CNN kernel against its loop; for MaxPool the first
// bytes pick a 2×2 stride-2 geometry.
func FuzzCNNKernelsParity(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0xc0, 0x7f})
	f.Add(uint8(2), uint8(3), make([]byte, 4*37))
	f.Add(uint8(3), uint8(0), []byte{0, 0, 0x80, 0x3f, 0, 0, 0x80, 0xff, 0, 0, 0, 0x80, 1, 0xc0, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, which, off uint8, raw []byte) {
		o := int(off % 8)
		vals := make([]float32, o+len(raw)/4)[o:]
		for i := range vals {
			b := raw[4*i:]
			vals[i] = math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		half := len(vals) / 2
		switch which % 5 {
		case 0:
			checkReLU(t, vals)
		case 1:
			checkReLUGrad(t, vals[:half], vals[half:2*half])
		case 2:
			if len(raw) < 2 {
				return
			}
			p := PoolShape{C: 1 + int(raw[0]%3), H: 2 + 2*int(raw[1]%5), W: 2 + 2*int(raw[0]/3%9), KH: 2, KW: 2, StrideH: 2, StrideW: 2}
			src := make([]float32, p.C*p.H*p.W)
			for i := range src {
				if len(vals) > 0 {
					src[i] = vals[i%len(vals)]
				}
			}
			checkMaxPool(t, p, src)
		case 3:
			c := 1 + int(off)%3
			checkBatchNormApply(t, vals[:len(vals)/c*c], bnRowCoefficients(c, int(off)))
		default:
			c := 1 + int(off)%3
			checkBatchNormInputGrad(t, vals[:half/c*c], vals[half:half+half/c*c], bnRowCoefficients(c, int(off)))
		}
	})
}

// The CNN kernel benchmarks time each kernel and its portable loop at
// the benchmark CNN's sizes on one rank (batch 32), in ns per output
// element: ReLU and its gradient over a whole activation, max pooling
// and im2col/col2im per image, batch norm's passes per sample row and
// its statistics per batch.

func benchPaths(b *testing.B, name string, elems int, run func()) {
	for _, path := range []string{"kernel", "portable"} {
		b.Run(path+"/"+name, func(b *testing.B) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = useAVX2 && path == "kernel"
			for i := 0; i < b.N; i++ {
				run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/element")
		})
	}
}

func BenchmarkReLU(b *testing.B) {
	r := rng.New(6)
	for _, n := range []int{32 * 8 * 144, 32 * 16 * 36, 32 * 64} {
		x, dout, y := edgeRun(r, n, 0, 0, false), edgeRun(r, n, 0, 0, false), make([]float32, n)
		benchPaths(b, fmt.Sprintf("forward/n=%d", n), n, func() { ReLU(y, x) })
		benchPaths(b, fmt.Sprintf("backward/n=%d", n), n, func() { ReLUGrad(y, x, dout) })
	}
}

func BenchmarkMaxPool(b *testing.B) {
	r := rng.New(7)
	for _, p := range []PoolShape{
		{C: 8, H: 12, W: 12, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
		{C: 16, H: 6, W: 6, KH: 2, KW: 2, StrideH: 2, StrideW: 2},
	} {
		src, dst, argmax := edgeRun(r, p.C*p.H*p.W, 0, 0, false), make([]float32, p.OutLen()), make([]int32, p.OutLen())
		benchPaths(b, fmt.Sprintf("%dx%dx%d", p.C, p.H, p.W), p.OutLen(), func() { MaxPool(p, dst, argmax, src) })
	}
}

func BenchmarkBatchNorm(b *testing.B) {
	r := rng.New(8)
	for _, g := range [][2]int{{8, 144}, {16, 36}} {
		n := g[0] * g[1]
		k := bnRowCoefficients(g[0], 0)
		x, dy, y, xhat := edgeRun(r, n, 0, 0, false), edgeRun(r, n, 0, 0, false), make([]float32, n), make([]float32, n)
		benchPaths(b, fmt.Sprintf("apply/%dx%d", g[0], g[1]), n, func() { BatchNormApply(y, xhat, x, k[0], k[1], k[2], k[3]) })
		benchPaths(b, fmt.Sprintf("inputgrad/%dx%d", g[0], g[1]), n, func() { BatchNormInputGrad(y, dy, xhat, k[0], k[1], k[2]) })
		// The statistics run over the whole batch of 32 rows.
		xb, db := bnMatrix(r, 32, n, 0, 0, false), bnMatrix(r, 32, n, 0, 0, false)
		mean, variance := make([]float32, g[0]), make([]float32, g[0])
		benchPaths(b, fmt.Sprintf("stats/32x%dx%d", g[0], g[1]), 32*n, func() { BatchNormStats(mean, variance, xb) })
		benchPaths(b, fmt.Sprintf("gradsums/32x%dx%d", g[0], g[1]), 32*n, func() { BatchNormGradSums(mean, variance, db, xb) })
	}
}

// BenchmarkIm2colCNN times the lowering of the benchmark CNN's two
// convolutions, the contiguous-span path against the general loop
// ("portable"), and Col2im, whose row sums run on Add.
func BenchmarkIm2colCNN(b *testing.B) {
	r := rng.New(9)
	for _, s := range []ConvShape{
		{InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 8, InH: 6, InW: 6, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	} {
		img := edgeRun(r, s.InC*s.InH*s.InW, 0, 0, false)
		cols := New(s.PatchLen(), s.OutH()*s.OutW())
		cols.FillNorm(r, 1)
		name := fmt.Sprintf("%dx%dx%d", s.InC, s.InH, s.InW)
		for _, path := range []string{"kernel", "portable"} {
			lower := Im2col
			if path == "portable" {
				lower = im2colGo
			}
			b.Run(path+"/im2col/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					lower(s, img, cols)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(cols.Data)), "ns/element")
			})
		}
		benchPaths(b, "col2im/"+name, len(cols.Data), func() { Col2im(s, cols, img) })
	}
}
