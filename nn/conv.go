package nn

import (
	"fmt"
	"math"

	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

// Conv2D is a 2-D convolution over NCHW inputs flattened one sample per
// row. Weights are stored as an (outC × inC·kH·kW) matrix so the forward
// pass is a single GEMM against the im2col expansion of each sample.
//
// The wire shape deliberately follows CNTK's layout, where the *kernel
// width* is the first tensor dimension: a 3×3 kernel becomes a 3-row
// matrix on the wire, so classic column-wise 1bitSGD quantises it in
// height-3 columns — two scale floats per three values. This is the
// performance artefact §3.2 ("Reshaped 1bitSGD") dissects.
type Conv2D struct {
	name  string
	shape tensor.ConvShape
	w, b  *Param
	x     *tensor.Matrix
	y     *tensor.Matrix
	dx    *tensor.Matrix
	// Per-sample scratch, sized by the geometry alone: the im2col
	// expansion, one sample's output and its gradient, and the two
	// gradient products before they join w.Grad and dx.
	cols, out, dOut, dW, dCols *tensor.Matrix
}

// NewConv2D builds a convolution layer with He initialisation.
func NewConv2D(name string, shape tensor.ConvShape, r *rng.RNG) *Conv2D {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	patch := shape.PatchLen()
	c := &Conv2D{
		name:  name,
		shape: shape,
		w: newParam(name+".W", shape.OutC, patch,
			quant.Shape{Rows: shape.KW, Cols: shape.KH * shape.InC * shape.OutC}),
		b: newParam(name+".b", 1, shape.OutC,
			quant.Shape{Rows: shape.OutC, Cols: 1}),
	}
	std := float32(math.Sqrt(2.0 / float64(patch)))
	c.w.Value.FillNorm(r, std)
	return c
}

// Shape returns the convolution geometry.
func (c *Conv2D) Shape() tensor.ConvShape { return c.shape }

// OutLen returns the per-sample output length outC·outH·outW.
func (c *Conv2D) OutLen() int { return c.shape.OutC * c.shape.OutH() * c.shape.OutW() }

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.w, c.b} }

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	inLen := c.shape.InC * c.shape.InH * c.shape.InW
	if x.Cols != inLen {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", c.name, inLen, x.Cols))
	}
	c.x = x
	outHW := c.shape.OutH() * c.shape.OutW()
	c.y = tensor.Reuse(c.y, x.Rows, c.OutLen())
	if c.cols == nil {
		patch := c.shape.PatchLen()
		c.cols = tensor.New(patch, outHW)
		c.out = tensor.New(c.shape.OutC, outHW)
		c.dOut = tensor.New(c.shape.OutC, outHW)
		c.dW = tensor.New(c.shape.OutC, patch)
		c.dCols = tensor.New(patch, outHW)
	}
	out := c.out
	for s := 0; s < x.Rows; s++ {
		tensor.Im2col(c.shape, x.Row(s), c.cols)
		tensor.MatMul(out, c.w.Value, c.cols)
		dst := c.y.Row(s)
		for oc := 0; oc < c.shape.OutC; oc++ {
			bias := c.b.Value.Data[oc]
			orow := out.Row(oc)
			base := oc * outHW
			for p, v := range orow {
				dst[base+p] = v + bias
			}
		}
	}
	return c.y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	outHW := c.shape.OutH() * c.shape.OutW()
	c.dx = tensor.Reuse(c.dx, dout.Rows, c.shape.InC*c.shape.InH*c.shape.InW)
	c.dx.Zero()
	dOutS, dW, dCols := c.dOut, c.dW, c.dCols
	for s := 0; s < dout.Rows; s++ {
		src := dout.Row(s)
		copy(dOutS.Data, src)
		// Bias gradient: sum over spatial positions per channel.
		for oc := 0; oc < c.shape.OutC; oc++ {
			var sum float32
			for p := 0; p < outHW; p++ {
				sum += dOutS.Data[oc*outHW+p]
			}
			c.b.Grad.Data[oc] += sum
		}
		// Weight gradient: dW += dOut · colsᵀ (cols recomputed — trades
		// FLOPs for not caching batch×patch activations).
		tensor.Im2col(c.shape, c.x.Row(s), c.cols)
		tensor.MatMulTransB(dW, dOutS, c.cols)
		c.w.Grad.Add(dW)
		// Input gradient: dCols = Wᵀ · dOut, scattered back by col2im.
		tensor.MatMulTransA(dCols, c.w.Value, dOutS)
		tensor.Col2im(c.shape, dCols, c.dx.Row(s))
	}
	return c.dx
}
