package tensor

import (
	"testing"

	"repro/rng"
)

// naiveConv computes convolution output directly from the definition, as
// an oracle for the im2col+GEMM path.
func naiveConv(c ConvShape, img, w []float32) []float32 {
	oh, ow := c.OutH(), c.OutW()
	out := make([]float32, c.OutC*oh*ow)
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float32
				for ic := 0; ic < c.InC; ic++ {
					for kh := 0; kh < c.KH; kh++ {
						for kw := 0; kw < c.KW; kw++ {
							iy := oy*c.StrideH - c.PadH + kh
							ix := ox*c.StrideW - c.PadW + kw
							if iy < 0 || iy >= c.InH || ix < 0 || ix >= c.InW {
								continue
							}
							wIdx := ((oc*c.InC+ic)*c.KH+kh)*c.KW + kw
							s += w[wIdx] * img[(ic*c.InH+iy)*c.InW+ix]
						}
					}
				}
				out[(oc*oh+oy)*ow+ox] = s
			}
		}
	}
	return out
}

func TestConvShapeGeometry(t *testing.T) {
	c := ConvShape{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if c.OutH() != 8 || c.OutW() != 8 {
		t.Fatalf("same-padding geometry wrong: %dx%d", c.OutH(), c.OutW())
	}
	c2 := ConvShape{InC: 1, InH: 8, InW: 8, OutC: 1, KH: 2, KW: 2, StrideH: 2, StrideW: 2}
	if c2.OutH() != 4 || c2.OutW() != 4 {
		t.Fatalf("strided geometry wrong: %dx%d", c2.OutH(), c2.OutW())
	}
}

func TestConvShapeValidate(t *testing.T) {
	bad := []ConvShape{
		{},
		{InC: 1, InH: 4, InW: 4, OutC: 1, KH: 0, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 1, InH: 4, InW: 4, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: -1},
		{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 5, KW: 5, StrideH: 1, StrideW: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, c)
		}
	}
	good := ConvShape{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestIm2colGEMMEqualsNaiveConv(t *testing.T) {
	r := rng.New(11)
	shapes := []ConvShape{
		{InC: 1, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
		{InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 2, InH: 9, InW: 7, OutC: 3, KH: 3, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 0},
		{InC: 4, InH: 6, InW: 6, OutC: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 0, PadW: 0},
	}
	for si, c := range shapes {
		img := make([]float32, c.InC*c.InH*c.InW)
		for i := range img {
			img[i] = r.Norm(1)
		}
		w := make([]float32, c.OutC*c.PatchLen())
		for i := range w {
			w[i] = r.Norm(1)
		}
		cols := New(c.PatchLen(), c.OutH()*c.OutW())
		Im2col(c, img, cols)
		wMat := FromSlice(c.OutC, c.PatchLen(), w)
		out := New(c.OutC, c.OutH()*c.OutW())
		MatMul(out, wMat, cols)
		want := naiveConv(c, img, w)
		for i, v := range want {
			if !almostEqual(out.Data[i], v, 1e-3) {
				t.Fatalf("shape %d: element %d: got %v want %v", si, i, out.Data[i], v)
			}
		}
	}
}

// Property: col2im is the adjoint of im2col, i.e. <im2col(x), y> ==
// <x, col2im(y)> for all x, y. This is exactly the property backprop
// relies on.
func TestCol2imAdjointProperty(t *testing.T) {
	r := rng.New(12)
	c := ConvShape{InC: 2, InH: 6, InW: 6, OutC: 1, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	for trial := 0; trial < 20; trial++ {
		x := make([]float32, c.InC*c.InH*c.InW)
		for i := range x {
			x[i] = r.Norm(1)
		}
		y := New(c.PatchLen(), c.OutH()*c.OutW())
		y.FillNorm(r, 1)

		cx := New(c.PatchLen(), c.OutH()*c.OutW())
		Im2col(c, x, cx)
		var lhs float64
		for i := range cx.Data {
			lhs += float64(cx.Data[i]) * float64(y.Data[i])
		}

		aty := make([]float32, len(x))
		Col2im(c, y, aty)
		var rhs float64
		for i := range x {
			rhs += float64(x[i]) * float64(aty[i])
		}
		if diff := lhs - rhs; diff > 1e-2 || diff < -1e-2 {
			t.Fatalf("adjoint property violated: %v vs %v", lhs, rhs)
		}
	}
}

func TestCol2imAccumulates(t *testing.T) {
	c := ConvShape{InC: 1, InH: 3, InW: 3, OutC: 1, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
	src := New(1, 9)
	src.Fill(1)
	dst := make([]float32, 9)
	Col2im(c, src, dst)
	Col2im(c, src, dst)
	for _, v := range dst {
		if v != 2 {
			t.Fatalf("Col2im should accumulate, got %v", dst)
		}
	}
}

func TestIm2colZeroPadding(t *testing.T) {
	c := ConvShape{InC: 1, InH: 2, InW: 2, OutC: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := []float32{1, 2, 3, 4}
	cols := New(c.PatchLen(), c.OutH()*c.OutW())
	cols.Fill(99) // ensure padding really writes zeros
	Im2col(c, img, cols)
	// Top-left output position, kernel (0,0) looks at (-1,-1): must be 0.
	if cols.At(0, 0) != 0 {
		t.Fatalf("padding not zeroed: %v", cols.At(0, 0))
	}
	// Kernel centre (1,1) at output (0,0) sees img(0,0)=1.
	if cols.At(4, 0) != 1 {
		t.Fatalf("centre tap wrong: %v", cols.At(4, 0))
	}
}

// TestIm2colCol2imMatchDefinition sweeps geometries whose valid spans
// are empty, clipped on one side or strided (padding wider than the
// kernel, one-pixel images, stride 3) and compares both transforms,
// exactly, with the per-element definition: a bounds test per tap, the
// taps of one pixel accumulated in (ch, kh, kw, oy, ox) order.
func TestIm2colCol2imMatchDefinition(t *testing.T) {
	r := rng.New(5)
	for _, in := range []int{1, 2, 5, 6} {
		for _, k := range []int{1, 2, 3, 5, 8} {
			for _, stride := range []int{1, 2, 3} {
				for _, pad := range []int{0, 1, 2, 4} {
					c := ConvShape{InC: 2, InH: in, InW: in + 1, OutC: 1, KH: k, KW: k,
						StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
					if c.Validate() != nil {
						continue
					}
					oh, ow := c.OutH(), c.OutW()
					img := make([]float32, c.InC*c.InH*c.InW)
					for i := range img {
						img[i] = r.Norm(1)
					}
					grad := New(c.PatchLen(), oh*ow)
					grad.FillNorm(r, 1)
					wantCols := New(c.PatchLen(), oh*ow)
					wantImg := make([]float32, len(img))
					for ch := 0; ch < c.InC; ch++ {
						for kh := 0; kh < c.KH; kh++ {
							for kw := 0; kw < c.KW; kw++ {
								row := (ch*c.KH+kh)*c.KW + kw
								for oy := 0; oy < oh; oy++ {
									for ox := 0; ox < ow; ox++ {
										iy, ix := oy*c.StrideH-c.PadH+kh, ox*c.StrideW-c.PadW+kw
										if iy < 0 || iy >= c.InH || ix < 0 || ix >= c.InW {
											continue
										}
										at := (ch*c.InH+iy)*c.InW + ix
										wantCols.Set(row, oy*ow+ox, img[at])
										wantImg[at] += grad.At(row, oy*ow+ox)
									}
								}
							}
						}
					}
					cols := New(c.PatchLen(), oh*ow)
					cols.Fill(9) // padding must be written, not assumed
					Im2col(c, img, cols)
					for i, w := range wantCols.Data {
						if cols.Data[i] != w {
							t.Fatalf("%+v: Im2col[%d] = %v, want %v", c, i, cols.Data[i], w)
						}
					}
					gotImg := make([]float32, len(img))
					Col2im(c, grad, gotImg)
					for i, w := range wantImg {
						if gotImg[i] != w {
							t.Fatalf("%+v: Col2im[%d] = %v, want %v", c, i, gotImg[i], w)
						}
					}
				}
			}
		}
	}
}

func BenchmarkIm2col(b *testing.B) {
	c := ConvShape{InC: 16, InH: 16, InW: 16, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	img := make([]float32, c.InC*c.InH*c.InW)
	dst := New(c.PatchLen(), c.OutH()*c.OutW())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Im2col(c, img, dst)
	}
}
