package nn

import "repro/tensor"

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
	x    *tensor.Matrix
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

// NewReLU returns a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	r.x = x
	r.y = tensor.Reuse(r.y, x.Rows, x.Cols)
	tensor.ReLU(r.y.Data, x.Data)
	return r.y
}

// Backward implements Layer.
func (r *ReLU) Backward(dout *tensor.Matrix) *tensor.Matrix {
	r.dx = tensor.Reuse(r.dx, dout.Rows, dout.Cols)
	tensor.ReLUGrad(r.dx.Data, r.x.Data, dout.Data)
	return r.dx
}

// Tanh is the hyperbolic tangent activation.
type Tanh struct {
	name string
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

// NewTanh returns a Tanh layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Name implements Layer.
func (t *Tanh) Name() string { return t.name }

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// Forward implements Layer.
func (t *Tanh) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	t.y = tensor.Reuse(t.y, x.Rows, x.Cols)
	tensor.Tanh(t.y.Data, x.Data)
	return t.y
}

// Backward implements Layer.
func (t *Tanh) Backward(dout *tensor.Matrix) *tensor.Matrix {
	t.dx = tensor.Reuse(t.dx, dout.Rows, dout.Cols)
	for i, y := range t.y.Data {
		t.dx.Data[i] = dout.Data[i] * (1 - float32(y*y))
	}
	return t.dx
}

// Sigmoid is the logistic activation.
type Sigmoid struct {
	name string
	y    *tensor.Matrix
	dx   *tensor.Matrix
}

// NewSigmoid returns a Sigmoid layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return s.name }

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	s.y = tensor.Reuse(s.y, x.Rows, x.Cols)
	tensor.Sigmoid(s.y.Data, x.Data)
	return s.y
}

// Backward implements Layer.
func (s *Sigmoid) Backward(dout *tensor.Matrix) *tensor.Matrix {
	s.dx = tensor.Reuse(s.dx, dout.Rows, dout.Cols)
	for i, y := range s.y.Data {
		s.dx.Data[i] = dout.Data[i] * y * (1 - y)
	}
	return s.dx
}
