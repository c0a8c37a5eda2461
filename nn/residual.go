package nn

import (
	"fmt"

	"repro/tensor"
)

// Residual wraps a body of layers with an identity skip connection:
// y = x + body(x). The body must preserve the activation shape, as in the
// basic blocks of the CIFAR ResNet-110 the paper trains.
type Residual struct {
	name string
	body []Layer
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

// NewResidual builds a residual block around body.
func NewResidual(name string, body ...Layer) *Residual {
	if len(body) == 0 {
		panic("nn: residual block needs a body")
	}
	return &Residual{name: name, body: body}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Params implements Layer.
func (r *Residual) Params() []*Param {
	var ps []*Param
	for _, l := range r.body {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Forward implements Layer.
func (r *Residual) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	h := x
	for _, l := range r.body {
		h = l.Forward(h, train)
	}
	if h.Rows != x.Rows || h.Cols != x.Cols {
		panic(fmt.Sprintf("nn: residual %s body changed shape %dx%d -> %dx%d",
			r.name, x.Rows, x.Cols, h.Rows, h.Cols))
	}
	r.y = tensor.Reuse(r.y, x.Rows, x.Cols)
	r.y.CopyFrom(h)
	r.y.Add(x)
	return r.y
}

// Backward implements Layer.
func (r *Residual) Backward(dout *tensor.Matrix) *tensor.Matrix {
	d := dout
	for i := len(r.body) - 1; i >= 0; i-- {
		d = r.body[i].Backward(d)
	}
	r.dx = tensor.Reuse(r.dx, dout.Rows, dout.Cols)
	r.dx.CopyFrom(d)
	r.dx.Add(dout)
	return r.dx
}
