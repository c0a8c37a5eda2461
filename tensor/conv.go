package tensor

import "fmt"

// ConvShape describes a 2-D convolution over NCHW inputs. It carries the
// geometry needed by Im2col/Col2im and by the convolution layer in
// internal/nn.
type ConvShape struct {
	InC, InH, InW    int // input channels, height, width
	OutC             int // output channels (number of filters)
	KH, KW           int // kernel height, width
	StrideH, StrideW int
	PadH, PadW       int
}

// OutH returns the output height.
func (c ConvShape) OutH() int { return (c.InH+2*c.PadH-c.KH)/c.StrideH + 1 }

// OutW returns the output width.
func (c ConvShape) OutW() int { return (c.InW+2*c.PadW-c.KW)/c.StrideW + 1 }

// PatchLen returns the length of one im2col column: InC*KH*KW.
func (c ConvShape) PatchLen() int { return c.InC * c.KH * c.KW }

// Validate reports a descriptive error when the geometry is inconsistent.
func (c ConvShape) Validate() error {
	if c.InC <= 0 || c.InH <= 0 || c.InW <= 0 || c.OutC <= 0 {
		return fmt.Errorf("tensor: conv shape has non-positive dims: %+v", c)
	}
	if c.KH <= 0 || c.KW <= 0 || c.StrideH <= 0 || c.StrideW <= 0 {
		return fmt.Errorf("tensor: conv kernel/stride non-positive: %+v", c)
	}
	if c.PadH < 0 || c.PadW < 0 {
		return fmt.Errorf("tensor: conv negative padding: %+v", c)
	}
	if c.OutH() <= 0 || c.OutW() <= 0 {
		return fmt.Errorf("tensor: conv output empty: %+v", c)
	}
	return nil
}

// validSpan returns the output positions [lo, hi) along one axis whose
// input coordinate o*stride - pad + tap lies inside [0, in): the rest of
// [0, out) reads padding.
func validSpan(out, in, stride, pad, tap int) (lo, hi int) {
	if d := pad - tap; d > 0 {
		lo = (d + stride - 1) / stride
	}
	if d := in + pad - tap; d > 0 {
		hi = (d + stride - 1) / stride
	}
	return min(lo, out), min(hi, out)
}

// Im2col expands a single image (CHW layout, length InC*InH*InW) into the
// dst matrix with shape (InC*KH*KW) × (OutH*OutW): column p holds the
// receptive field of output position p. dst must be pre-allocated.
//
// This is the standard lowering that turns convolution into GEMM, the same
// strategy cuDNN uses for its GEMM-based algorithms.
func Im2col(c ConvShape, img []float32, dst *Matrix) {
	oh, ow := c.OutH(), c.OutW()
	if len(img) != c.InC*c.InH*c.InW {
		panic("tensor: Im2col image size mismatch")
	}
	if dst.Rows != c.PatchLen() || dst.Cols != oh*ow {
		panic("tensor: Im2col dst shape mismatch")
	}
	if c.sameRows() {
		im2colSame(c, img, dst)
		return
	}
	im2colGo(c, img, dst)
}

// sameRows reports a stride-1 convolution whose output rows are as wide
// as the input's (a "same" padding along the width, such as 3×3 with
// pad 1). Kernel tap (kh, kw) then reads for output position q the
// input pixel q + (kh−PadH)·InW + kw−PadW of its channel plane, one
// offset for all q: Im2col copies a tap's whole span of output rows at
// once and fixes up the pad edges after, and the Col2im kernel
// (conv_amd64.s) reaches eight consecutive pixels with one load.
func (c ConvShape) sameRows() bool {
	return c.StrideH == 1 && c.StrideW == 1 && c.OutW() == c.InW
}

// im2colGo is Im2col for any geometry, one output row of one kernel tap
// at a time.
func im2colGo(c ConvShape, img []float32, dst *Matrix) {
	oh, ow := c.OutH(), c.OutW()
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for kh := 0; kh < c.KH; kh++ {
			oy0, oy1 := validSpan(oh, c.InH, c.StrideH, c.PadH, kh)
			for kw := 0; kw < c.KW; kw++ {
				// Only the pad edges of a row are zeroed; the span
				// between them is copied with no test per element.
				ox0, ox1 := validSpan(ow, c.InW, c.StrideW, c.PadW, kw)
				drow := dst.Row(((ch*c.KH)+kh)*c.KW + kw)
				if ox0 == ox1 {
					clear(drow)
					continue
				}
				clear(drow[:oy0*ow])
				clear(drow[oy1*ow:])
				for oy := oy0; oy < oy1; oy++ {
					orow := drow[oy*ow : (oy+1)*ow]
					src := chOff + (oy*c.StrideH-c.PadH+kh)*c.InW + ox0*c.StrideW - c.PadW + kw
					// An edge is pad elements wide, one or two: a loop,
					// where a clear would cost its call.
					for ox := 0; ox < ox0; ox++ {
						orow[ox] = 0
					}
					for ox := ox1; ox < ow; ox++ {
						orow[ox] = 0
					}
					if c.StrideW == 1 {
						copy(orow[ox0:ox1], img[src:])
						continue
					}
					for ox := ox0; ox < ox1; ox++ {
						orow[ox] = img[src]
						src += c.StrideW
					}
				}
			}
		}
	}
}

// im2colSame is Im2col for sameRows geometries: per kernel tap, one copy
// from the first valid element of its first valid output row to the
// last of its last, then zeros over the pad edges, which that copy
// filled with the neighbouring row's pixels.
func im2colSame(c ConvShape, img []float32, dst *Matrix) {
	oh, ow := c.OutH(), c.OutW()
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for kh := 0; kh < c.KH; kh++ {
			oy0, oy1 := validSpan(oh, c.InH, 1, c.PadH, kh)
			for kw := 0; kw < c.KW; kw++ {
				ox0, ox1 := validSpan(ow, c.InW, 1, c.PadW, kw)
				drow := dst.Row(((ch*c.KH)+kh)*c.KW + kw)
				if ox0 == ox1 || oy0 == oy1 {
					clear(drow)
					continue
				}
				lo, hi := oy0*ow+ox0, (oy1-1)*ow+ox1
				shift := chOff + (kh-c.PadH)*c.InW + kw - c.PadW
				copy(drow[lo:hi], img[lo+shift:hi+shift])
				clear(drow[:lo])
				clear(drow[hi:])
				// Between two output rows, the right edge of one and the
				// left edge of the next are one run of pad positions;
				// only one of the two is not empty.
				left, right := ox0, ow-ox1
				if left+right == 0 {
					continue
				}
				for q := (oy0+1)*ow - right; q < hi; q += ow {
					for i := q; i < q+left+right; i++ {
						drow[i] = 0
					}
				}
			}
		}
	}
}

// Col2im accumulates the columns of src (shape (InC*KH*KW) × (OutH*OutW))
// back into an image gradient (CHW layout). dst must be pre-zeroed by the
// caller when accumulation across calls is not desired. Each pixel
// receives its contributions in (ch, kh, kw) order, one per kernel tap
// that reads it, each a float32 add onto the pixel.
//
// On amd64 with AVX2, sameRows geometries run on the kernel in
// conv_amd64.s, which turns the loop inside out: lanes across eight
// pixels of a channel plane, each lane summing its pixel's taps in
// (kh, kw) order in a register, a tap's masked-off lanes (the tap reads
// padding there) keeping their sum. Every pixel is the same chain of
// adds as in the loop.
func Col2im(c ConvShape, src *Matrix, dst []float32) {
	oh, ow := c.OutH(), c.OutW()
	if len(dst) != c.InC*c.InH*c.InW {
		panic("tensor: Col2im image size mismatch")
	}
	if src.Rows != c.PatchLen() || src.Cols != oh*ow {
		panic("tensor: Col2im src shape mismatch")
	}
	if c.sameRows() && col2imSameAsm(c, src, dst) {
		return
	}
	col2imGo(c, src, dst)
}

// col2imGo is Col2im for any geometry, one kernel tap at a time.
func col2imGo(c ConvShape, src *Matrix, dst []float32) {
	oh, ow := c.OutH(), c.OutW()
	for ch := 0; ch < c.InC; ch++ {
		chOff := ch * c.InH * c.InW
		for kh := 0; kh < c.KH; kh++ {
			oy0, oy1 := validSpan(oh, c.InH, c.StrideH, c.PadH, kh)
			for kw := 0; kw < c.KW; kw++ {
				ox0, ox1 := validSpan(ow, c.InW, c.StrideW, c.PadW, kw)
				if ox0 == ox1 {
					continue
				}
				srow := src.Row(((ch*c.KH)+kh)*c.KW + kw)
				for oy := oy0; oy < oy1; oy++ {
					at := chOff + (oy*c.StrideH-c.PadH+kh)*c.InW + ox0*c.StrideW - c.PadW + kw
					seg := srow[oy*ow+ox0 : oy*ow+ox1]
					if c.StrideW == 1 {
						out := dst[at : at+len(seg)]
						for i, v := range seg {
							out[i] += v
						}
						continue
					}
					for _, v := range seg {
						dst[at] += v
						at += c.StrideW
					}
				}
			}
		}
	}
}
