package nn

import (
	"fmt"
	"math"

	"repro/quant"
	"repro/tensor"
)

// BatchNorm normalises activations per channel over the batch (and, for
// convolutional inputs, over spatial positions), then applies a learned
// affine transform — the building block BN-Inception and ResNet rely on.
//
// For inputs of shape (batch, C·spatial) the layer treats each sample row
// as C channels of `spatial` contiguous values; spatial = 1 recovers the
// dense-layer variant.
type BatchNorm struct {
	name       string
	c, spatial int
	momentum   float32
	eps        float32

	gamma, beta *Param

	// Running statistics for evaluation mode.
	runMean, runVar []float32

	// Saved forward state for backward.
	xhat   *tensor.Matrix
	invStd []float32
	y      *tensor.Matrix
	dx     *tensor.Matrix
}

// NewBatchNorm builds a batch-norm layer over c channels with the given
// per-channel spatial extent.
func NewBatchNorm(name string, c, spatial int) *BatchNorm {
	if c <= 0 || spatial <= 0 {
		panic(fmt.Sprintf("nn: bad batchnorm geometry %s", name))
	}
	b := &BatchNorm{
		name:     name,
		c:        c,
		spatial:  spatial,
		momentum: 0.9,
		eps:      1e-5,
		gamma:    newParam(name+".scale", 1, c, quant.Shape{Rows: c, Cols: 1}),
		beta:     newParam(name+".bias", 1, c, quant.Shape{Rows: c, Cols: 1}),
		runMean:  make([]float32, c),
		runVar:   make([]float32, c),
		invStd:   make([]float32, c),
	}
	b.gamma.Value.Fill(1)
	for i := range b.runVar {
		b.runVar[i] = 1
	}
	return b
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }

// Forward implements Layer.
func (b *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if x.Cols != b.c*b.spatial {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", b.name, b.c*b.spatial, x.Cols))
	}
	b.y = tensor.Reuse(b.y, x.Rows, x.Cols)
	b.xhat = tensor.Reuse(b.xhat, x.Rows, x.Cols)
	count := float64(x.Rows * b.spatial)
	for ch := 0; ch < b.c; ch++ {
		base := ch * b.spatial
		var mean, variance float32
		if train {
			var sum float64
			for s := 0; s < x.Rows; s++ {
				row := x.Row(s)
				for p := 0; p < b.spatial; p++ {
					sum += float64(row[base+p])
				}
			}
			mean = float32(sum / count)
			var sq float64
			for s := 0; s < x.Rows; s++ {
				row := x.Row(s)
				for p := 0; p < b.spatial; p++ {
					d := float64(row[base+p] - mean)
					sq += float64(d * d)
				}
			}
			variance = float32(sq / count)
			b.runMean[ch] = float32(b.momentum*b.runMean[ch]) + float32((1-b.momentum)*mean)
			b.runVar[ch] = float32(b.momentum*b.runVar[ch]) + float32((1-b.momentum)*variance)
		} else {
			mean, variance = b.runMean[ch], b.runVar[ch]
		}
		inv := float32(1 / math.Sqrt(float64(variance)+float64(b.eps)))
		b.invStd[ch] = inv
		g, bt := b.gamma.Value.Data[ch], b.beta.Value.Data[ch]
		for s := 0; s < x.Rows; s++ {
			row := x.Row(s)
			xh := b.xhat.Row(s)
			out := b.y.Row(s)
			for p := 0; p < b.spatial; p++ {
				h := (row[base+p] - mean) * inv
				xh[base+p] = h
				out[base+p] = float32(g*h) + bt
			}
		}
	}
	return b.y
}

// Backward implements Layer. Standard batch-norm gradients:
//
//	dβ = Σ dy, dγ = Σ dy·x̂,
//	dx = (γ/σ)·(dy − mean(dy) − x̂·mean(dy·x̂))
func (b *BatchNorm) Backward(dout *tensor.Matrix) *tensor.Matrix {
	b.dx = tensor.Reuse(b.dx, dout.Rows, dout.Cols)
	count := float32(dout.Rows * b.spatial)
	for ch := 0; ch < b.c; ch++ {
		base := ch * b.spatial
		var sumDy, sumDyXhat float64
		for s := 0; s < dout.Rows; s++ {
			row := dout.Row(s)
			xh := b.xhat.Row(s)
			for p := 0; p < b.spatial; p++ {
				dy := float64(row[base+p])
				sumDy += dy
				sumDyXhat += float64(dy * float64(xh[base+p]))
			}
		}
		b.beta.Grad.Data[ch] += float32(sumDy)
		b.gamma.Grad.Data[ch] += float32(sumDyXhat)
		g := b.gamma.Value.Data[ch]
		inv := b.invStd[ch]
		meanDy := float32(sumDy) / count
		meanDyXhat := float32(sumDyXhat) / count
		for s := 0; s < dout.Rows; s++ {
			row := dout.Row(s)
			xh := b.xhat.Row(s)
			dIn := b.dx.Row(s)
			for p := 0; p < b.spatial; p++ {
				dIn[base+p] = g * inv * (row[base+p] - meanDy - float32(xh[base+p]*meanDyXhat))
			}
		}
	}
	return b.dx
}
