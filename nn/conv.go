package nn

import (
	"fmt"
	"math"
	"slices"

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
	y     *tensor.Matrix
	dx    *tensor.Matrix
	// Scratch: the im2col expansion of every sample of a training batch,
	// kept from Forward for Backward's weight gradient (grow-only, like
	// the layer outputs; an evaluation pass, whose batches can be far
	// larger, expands one sample at a time); the bias spread over one
	// sample's output; headers over one sample's columns, output and
	// output gradient; and the two gradient products before they join
	// w.Grad (once the first sample has begun it) and dx.
	colsAll, biasRow           []float32
	cols, out, dOut, dW, dCols *tensor.Matrix
	// The last Forward's input, and whether colsAll holds its columns
	// (a training pass) or only the last sample's (evaluation).
	x    *tensor.Matrix
	kept bool
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
func (c *Conv2D) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	inLen := c.shape.InC * c.shape.InH * c.shape.InW
	if x.Cols != inLen {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", c.name, inLen, x.Cols))
	}
	outHW := c.shape.OutH() * c.shape.OutW()
	c.y = tensor.Reuse(c.y, x.Rows, c.OutLen())
	patch := c.shape.PatchLen()
	if c.out == nil {
		c.cols = &tensor.Matrix{Rows: patch, Cols: outHW}
		c.out = &tensor.Matrix{Rows: c.shape.OutC, Cols: outHW}
		c.dOut = &tensor.Matrix{Rows: c.shape.OutC, Cols: outHW}
		c.dCols = tensor.New(patch, outHW)
	}
	colLen := patch * outHW
	c.x, c.kept = x, train
	kept := 1
	if train {
		kept = x.Rows
	}
	c.colsAll = slices.Grow(c.colsAll[:0], kept*colLen)[:kept*colLen]
	// The bias of each output channel, repeated over its positions.
	c.biasRow = slices.Grow(c.biasRow[:0], c.OutLen())[:c.OutLen()]
	for oc, bias := range c.b.Value.Data {
		row := c.biasRow[oc*outHW : (oc+1)*outHW]
		for p := range row {
			row[p] = bias
		}
	}
	out := c.out
	for s := 0; s < x.Rows; s++ {
		c.cols.Data = c.colsAll[s%kept*colLen:][:colLen]
		tensor.Im2col(c.shape, x.Row(s), c.cols)
		out.Data = c.y.Row(s)
		tensor.MatMul(out, c.w.Value, c.cols)
		tensor.Add(out.Data, c.biasRow)
	}
	return c.y
}

// Backward implements Layer.
func (c *Conv2D) Backward(dout *tensor.Matrix) *tensor.Matrix {
	outHW := c.shape.OutH() * c.shape.OutW()
	c.dx = tensor.Reuse(c.dx, dout.Rows, c.shape.InC*c.shape.InH*c.shape.InW)
	c.dx.Zero()
	dOutS, dCols := c.dOut, c.dCols
	colLen := c.shape.PatchLen() * outHW
	bias := c.b.liveGrad().Data
	for s := 0; s < dout.Rows; s++ {
		dOutS.Data = dout.Row(s)
		c.biasGrad(bias, dOutS.Data, outHW)
		// Weight gradient: dW += dOut · colsᵀ, on the columns a training
		// Forward kept.
		if c.kept {
			c.cols.Data = c.colsAll[s*colLen:][:colLen]
		} else {
			c.cols.Data = c.colsAll[:colLen]
			tensor.Im2col(c.shape, c.x.Row(s), c.cols)
		}
		dW := c.w.productDst(&c.dW)
		tensor.MatMulTransB(dW, dOutS, c.cols)
		c.w.addProduct(dW)
		// Input gradient: dCols = Wᵀ · dOut, scattered back by col2im.
		tensor.MatMulTransA(dCols, c.w.Value, dOutS)
		tensor.Col2im(c.shape, dCols, c.dx.Row(s))
	}
	return c.dx
}

// biasGrad adds one sample's bias gradient to db, b's gradient: each
// output channel's float32 sum of its outHW positions of g, in position
// order. Four channels' sums run side by side, each its own chain.
func (c *Conv2D) biasGrad(db, g []float32, outHW int) {
	n := c.shape.OutC
	for oc := 0; oc < n; oc += 4 {
		// Past the last channel, a group repeats it; the repeats are not
		// stored.
		g0, g1 := g[oc*outHW:(oc+1)*outHW], g[min(oc+1, n-1)*outHW:][:outHW]
		g2, g3 := g[min(oc+2, n-1)*outHW:][:outHW], g[min(oc+3, n-1)*outHW:][:outHW]
		var s0, s1, s2, s3 float32
		for p, v := range g0 {
			s0 += v
			s1 += g1[p]
			s2 += g2[p]
			s3 += g3[p]
		}
		sums := [4]float32{s0, s1, s2, s3}
		for i := range min(4, n-oc) {
			db[oc+i] += sums[i]
		}
	}
}
