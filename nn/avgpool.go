package nn

import (
	"fmt"

	"repro/tensor"
)

// AvgPool2D is channel-wise average pooling over NCHW inputs flattened
// one sample per row — the pooling flavour BN-Inception's towers use.
type AvgPool2D struct {
	name             string
	c, h, w          int
	kh, kw           int
	strideH, strideW int
	y                *tensor.Matrix
	dx               *tensor.Matrix
}

// NewAvgPool2D builds an average-pooling layer over c×h×w inputs with a
// kh×kw window and the given strides.
func NewAvgPool2D(name string, c, h, w, kh, kw, strideH, strideW int) *AvgPool2D {
	if c <= 0 || h <= 0 || w <= 0 || kh <= 0 || kw <= 0 || strideH <= 0 || strideW <= 0 {
		panic(fmt.Sprintf("nn: bad avgpool geometry %s", name))
	}
	return &AvgPool2D{name: name, c: c, h: h, w: w, kh: kh, kw: kw,
		strideH: strideH, strideW: strideW}
}

// OutH returns the pooled height.
func (p *AvgPool2D) OutH() int { return (p.h-p.kh)/p.strideH + 1 }

// OutW returns the pooled width.
func (p *AvgPool2D) OutW() int { return (p.w-p.kw)/p.strideW + 1 }

// OutLen returns the per-sample output length.
func (p *AvgPool2D) OutLen() int { return p.c * p.OutH() * p.OutW() }

// Name implements Layer.
func (p *AvgPool2D) Name() string { return p.name }

// Params implements Layer.
func (p *AvgPool2D) Params() []*Param { return nil }

// Forward implements Layer.
func (p *AvgPool2D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != p.c*p.h*p.w {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", p.name, p.c*p.h*p.w, x.Cols))
	}
	oh, ow := p.OutH(), p.OutW()
	p.y = tensor.Reuse(p.y, x.Rows, p.OutLen())
	inv := 1 / float32(p.kh*p.kw)
	for s := 0; s < x.Rows; s++ {
		in := x.Row(s)
		out := p.y.Row(s)
		for ch := 0; ch < p.c; ch++ {
			chOff := ch * p.h * p.w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for ky := 0; ky < p.kh; ky++ {
						rowOff := chOff + (oy*p.strideH+ky)*p.w
						for kx := 0; kx < p.kw; kx++ {
							sum += in[rowOff+ox*p.strideW+kx]
						}
					}
					out[(ch*oh+oy)*ow+ox] = sum * inv
				}
			}
		}
	}
	return p.y
}

// Backward implements Layer.
func (p *AvgPool2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	oh, ow := p.OutH(), p.OutW()
	p.dx = tensor.Reuse(p.dx, dout.Rows, p.c*p.h*p.w)
	p.dx.Zero()
	inv := 1 / float32(p.kh*p.kw)
	for s := 0; s < dout.Rows; s++ {
		dIn := p.dx.Row(s)
		dOut := dout.Row(s)
		for ch := 0; ch < p.c; ch++ {
			chOff := ch * p.h * p.w
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := float32(dOut[(ch*oh+oy)*ow+ox] * inv)
					for ky := 0; ky < p.kh; ky++ {
						rowOff := chOff + (oy*p.strideH+ky)*p.w
						for kx := 0; kx < p.kw; kx++ {
							dIn[rowOff+ox*p.strideW+kx] += g
						}
					}
				}
			}
		}
	}
	return p.dx
}

// Concat runs several tower bodies on the same input and concatenates
// their outputs along the feature axis — the Inception-module pattern.
// Each tower is a stack of layers; towers see the identical input and
// their output columns are laid side by side.
type Concat struct {
	name   string
	towers [][]Layer
	outs   []*tensor.Matrix
	y      *tensor.Matrix
	dx     *tensor.Matrix
	widths []int
}

// NewConcat builds a concatenation block over the given towers.
func NewConcat(name string, towers ...[]Layer) *Concat {
	if len(towers) == 0 {
		panic("nn: concat needs at least one tower")
	}
	return &Concat{name: name, towers: towers, outs: make([]*tensor.Matrix, len(towers)),
		widths: make([]int, len(towers))}
}

// Name implements Layer.
func (c *Concat) Name() string { return c.name }

// Params implements Layer.
func (c *Concat) Params() []*Param {
	var ps []*Param
	for _, tower := range c.towers {
		for _, l := range tower {
			ps = append(ps, l.Params()...)
		}
	}
	return ps
}

// Forward implements Layer.
func (c *Concat) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	total := 0
	for ti, tower := range c.towers {
		h := x
		for _, l := range tower {
			h = l.Forward(h, train)
		}
		if h.Rows != x.Rows {
			panic(fmt.Sprintf("nn: concat %s tower %d changed batch size", c.name, ti))
		}
		c.outs[ti] = h
		c.widths[ti] = h.Cols
		total += h.Cols
	}
	c.y = tensor.Reuse(c.y, x.Rows, total)
	for s := 0; s < x.Rows; s++ {
		dst := c.y.Row(s)
		off := 0
		for ti := range c.towers {
			copy(dst[off:off+c.widths[ti]], c.outs[ti].Row(s))
			off += c.widths[ti]
		}
	}
	return c.y
}

// Backward implements Layer.
func (c *Concat) Backward(dout *tensor.Matrix) *tensor.Matrix {
	if c.dx == nil || c.dx.Rows != dout.Rows {
		c.dx = nil // re-derive from the first tower's dx shape below
	}
	off := 0
	for ti, tower := range c.towers {
		w := c.widths[ti]
		slice := tensor.New(dout.Rows, w)
		for s := 0; s < dout.Rows; s++ {
			copy(slice.Row(s), dout.Row(s)[off:off+w])
		}
		off += w
		d := slice
		var dm *tensor.Matrix = d
		for i := len(tower) - 1; i >= 0; i-- {
			dm = tower[i].Backward(dm)
		}
		if c.dx == nil {
			c.dx = tensor.New(dout.Rows, dm.Cols)
			c.dx.Zero()
		}
		c.dx.Add(dm)
	}
	out := c.dx
	c.dx = nil // towers may resize next batch; rebuild lazily
	return out
}
