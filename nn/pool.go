package nn

import (
	"fmt"
	"slices"

	"repro/tensor"
)

// MaxPool2D is channel-wise max pooling over NCHW inputs flattened one
// sample per row (tensor.MaxPool: the first of equal maxima wins, a NaN
// never does).
type MaxPool2D struct {
	name   string
	shape  tensor.PoolShape
	argmax []int32 // flat index of the winning input per output
	y      *tensor.Matrix
	dx     *tensor.Matrix
}

// NewMaxPool2D builds a max-pooling layer over c×h×w inputs with a
// kh×kw window and the given strides.
func NewMaxPool2D(name string, c, h, w, kh, kw, strideH, strideW int) *MaxPool2D {
	shape := tensor.PoolShape{C: c, H: h, W: w, KH: kh, KW: kw, StrideH: strideH, StrideW: strideW}
	if err := shape.Validate(); err != nil {
		panic(fmt.Sprintf("nn: bad pool geometry %s: %v", name, err))
	}
	return &MaxPool2D{name: name, shape: shape}
}

// OutH returns the pooled height.
func (p *MaxPool2D) OutH() int { return p.shape.OutH() }

// OutW returns the pooled width.
func (p *MaxPool2D) OutW() int { return p.shape.OutW() }

// OutLen returns the per-sample output length.
func (p *MaxPool2D) OutLen() int { return p.shape.OutLen() }

// Name implements Layer.
func (p *MaxPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *MaxPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *MaxPool2D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if inLen := p.shape.C * p.shape.H * p.shape.W; x.Cols != inLen {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", p.name, inLen, x.Cols))
	}
	outLen := p.OutLen()
	p.y = tensor.Reuse(p.y, x.Rows, outLen)
	p.argmax = slices.Grow(p.argmax[:0], x.Rows*outLen)[:x.Rows*outLen]
	for s := 0; s < x.Rows; s++ {
		tensor.MaxPool(p.shape, p.y.Row(s), p.argmax[s*outLen:(s+1)*outLen], x.Row(s))
	}
	return p.y
}

// Backward implements Layer.
func (p *MaxPool2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	p.dx = tensor.Reuse(p.dx, dout.Rows, p.shape.C*p.shape.H*p.shape.W)
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
