package nn

import (
	"fmt"
	"math"

	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

// Dense is a fully connected layer: y = x·W + b with W of shape
// (in × out). Its wire shape follows the CNTK convention of putting the
// output dimension first, giving 1bitSGD tall columns — which is why the
// paper observes classic 1bitSGD "effectively does not quantise
// convolutional layers" yet handles FC layers well.
type Dense struct {
	name    string
	in, out int
	w, b    *Param
	x       *tensor.Matrix // cached input for backward
	dx      *tensor.Matrix
	y       *tensor.Matrix
	dw      *tensor.Matrix // this step's xᵀ·dout, before it joins w.Grad
}

// NewDense builds a dense layer with He-initialised weights.
func NewDense(name string, in, out int, r *rng.RNG) *Dense {
	d := &Dense{
		name: name,
		in:   in,
		out:  out,
		w:    newParam(name+".W", in, out, quant.Shape{Rows: out, Cols: in}),
		b:    newParam(name+".b", 1, out, quant.Shape{Rows: out, Cols: 1}),
	}
	std := float32(math.Sqrt(2.0 / float64(in)))
	d.w.Value.FillNorm(r, std)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != d.in {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", d.name, d.in, x.Cols))
	}
	d.x = x
	d.y = tensor.Reuse(d.y, x.Rows, d.out)
	tensor.MatMulAddBias(d.y, x, d.w.Value, d.b.Value)
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(dout *tensor.Matrix) *tensor.Matrix {
	// dW += xᵀ · dout, as one product added once: accumulating into the
	// gradient term by term would reorder its sum.
	if d.dw == nil {
		d.dw = tensor.New(d.in, d.out)
	}
	tensor.MatMulTransA(d.dw, d.x, dout)
	d.w.Grad.Add(d.dw)
	// db += column sums of dout
	for i := 0; i < dout.Rows; i++ {
		row := dout.Row(i)
		for j, v := range row {
			d.b.Grad.Data[j] += v
		}
	}
	// dx = dout · Wᵀ
	d.dx = tensor.Reuse(d.dx, dout.Rows, d.in)
	tensor.MatMulTransB(d.dx, dout, d.w.Value)
	return d.dx
}
