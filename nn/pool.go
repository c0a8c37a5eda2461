package nn

import (
	"fmt"
	"math"
	"slices"

	"repro/tensor"
)

// MaxPool2D is channel-wise max pooling over NCHW inputs flattened one
// sample per row.
type MaxPool2D struct {
	name             string
	c, h, w          int
	kh, kw           int
	strideH, strideW int
	argmax           []int32 // flat index of the winning input per output
	y                *tensor.Matrix
	dx               *tensor.Matrix
}

// NewMaxPool2D builds a max-pooling layer over c×h×w inputs with a
// kh×kw window and the given strides.
func NewMaxPool2D(name string, c, h, w, kh, kw, strideH, strideW int) *MaxPool2D {
	if c <= 0 || h <= 0 || w <= 0 || kh <= 0 || kw <= 0 || strideH <= 0 || strideW <= 0 {
		panic(fmt.Sprintf("nn: bad pool geometry %s", name))
	}
	return &MaxPool2D{name: name, c: c, h: h, w: w, kh: kh, kw: kw, strideH: strideH, strideW: strideW}
}

// OutH returns the pooled height.
func (p *MaxPool2D) OutH() int { return (p.h-p.kh)/p.strideH + 1 }

// OutW returns the pooled width.
func (p *MaxPool2D) OutW() int { return (p.w-p.kw)/p.strideW + 1 }

// OutLen returns the per-sample output length.
func (p *MaxPool2D) OutLen() int { return p.c * p.OutH() * p.OutW() }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != p.c*p.h*p.w {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", p.name, p.c*p.h*p.w, x.Cols))
	}
	oh, ow := p.OutH(), p.OutW()
	outLen := p.OutLen()
	p.y = tensor.Reuse(p.y, x.Rows, outLen)
	p.argmax = slices.Grow(p.argmax[:0], x.Rows*outLen)[:x.Rows*outLen]
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := p.y.Row(s)
		amBase := s * outLen
		for ch := 0; ch < p.c; ch++ {
			chOff := ch * p.h * p.w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := -1
					for ky := 0; ky < p.kh; ky++ {
						iy := oy*p.strideH + ky
						rowOff := chOff + iy*p.w
						for kx := 0; kx < p.kw; kx++ {
							ix := ox*p.strideW + kx
							if v := in[rowOff+ix]; v > best {
								best = v
								bestIdx = rowOff + ix
							}
						}
					}
					oi := (ch*oh+oy)*ow + ox
					out[oi] = best
					p.argmax[amBase+oi] = int32(bestIdx)
				}
			}
		}
	}
	return p.y
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	p.dx = tensor.Reuse(p.dx, dout.Rows, p.c*p.h*p.w)
	p.dx.Zero()
	outLen := p.OutLen()
	for s := 0; s < dout.Rows; s++ {
		dIn := p.dx.Row(s)
		dOut := dout.Row(s)
		amBase := s * outLen
		for oi, g := range dOut {
			dIn[p.argmax[amBase+oi]] += g
		}
	}
	return p.dx
}

// GlobalAvgPool averages each channel's spatial plane, mapping a
// (batch, C·H·W) activation to (batch, C) — the classifier head pattern
// ResNet and BN-Inception use.
type GlobalAvgPool struct {
	name    string
	c, h, w int
	y       *tensor.Matrix
	dx      *tensor.Matrix
}

// NewGlobalAvgPool builds the layer for c×h×w inputs.
func NewGlobalAvgPool(name string, c, h, w int) *GlobalAvgPool {
	return &GlobalAvgPool{name: name, c: c, h: h, w: w}
}

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return g.name }

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	hw := g.h * g.w
	if x.Cols != g.c*hw {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", g.name, g.c*hw, x.Cols))
	}
	g.y = tensor.Reuse(g.y, x.Rows, g.c)
	inv := 1 / float32(hw)
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := g.y.Row(s)
		for ch := 0; ch < g.c; ch++ {
			var sum float32
			base := ch * hw
			for p := 0; p < hw; p++ {
				sum += in[base+p]
			}
			out[ch] = sum * inv
		}
	}
	return g.y
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(dout *tensor.Matrix) *tensor.Matrix {
	hw := g.h * g.w
	g.dx = tensor.Reuse(g.dx, dout.Rows, g.c*hw)
	inv := 1 / float32(hw)
	for s := 0; s < dout.Rows; s++ {
		dIn := g.dx.Row(s)
		dOut := dout.Row(s)
		for ch := 0; ch < g.c; ch++ {
			v := dOut[ch] * inv
			base := ch * hw
			for p := 0; p < hw; p++ {
				dIn[base+p] = v
			}
		}
	}
	return g.dx
}
