package nn

import (
	"fmt"
	"slices"

	"repro/rng"
	"repro/tensor"
)

// Dropout zeroes activations with probability p during training and
// rescales survivors by 1/(1−p) ("inverted dropout"), so evaluation is
// the identity.
type Dropout struct {
	name string
	p    float32
	r    *rng.RNG
	mask []float32
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

// NewDropout builds a dropout layer with drop probability p ∈ [0, 1).
func NewDropout(name string, p float32, r *rng.RNG) *Dropout {
	if p < 0 || p >= 1 {
		panic(fmt.Sprintf("nn: dropout probability %v out of [0,1)", p))
	}
	return &Dropout{name: name, p: p, r: r}
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	d.y = tensor.Reuse(d.y, x.Rows, x.Cols)
	d.mask = slices.Grow(d.mask[:0], x.Len())[:x.Len()]
	if !train || d.p == 0 {
		copy(d.y.Data, x.Data)
		for i := range d.mask {
			d.mask[i] = 1
		}
		return d.y
	}
	scale := 1 / (1 - d.p)
	for i, v := range x.Data {
		if d.r.Float32() < d.p {
			d.mask[i] = 0
			d.y.Data[i] = 0
		} else {
			d.mask[i] = scale
			d.y.Data[i] = v * scale
		}
	}
	return d.y
}

// Backward implements Layer.
func (d *Dropout) Backward(dout *tensor.Matrix) *tensor.Matrix {
	d.dx = tensor.Reuse(d.dx, dout.Rows, dout.Cols)
	for i, g := range dout.Data {
		d.dx.Data[i] = g * d.mask[i]
	}
	return d.dx
}
