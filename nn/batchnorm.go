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

	// This batch's statistics (the running ones in evaluation mode), and
	// Backward's per-channel γ/σ, mean(dy) and mean(dy·x̂).
	mean, variance           []float32
	gInv, meanDy, meanDyXhat []float32

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
		name:       name,
		c:          c,
		spatial:    spatial,
		momentum:   0.9,
		eps:        1e-5,
		gamma:      newParam(name+".scale", 1, c, quant.Shape{Rows: c, Cols: 1}),
		beta:       newParam(name+".bias", 1, c, quant.Shape{Rows: c, Cols: 1}),
		runMean:    make([]float32, c),
		runVar:     make([]float32, c),
		mean:       make([]float32, c),
		variance:   make([]float32, c),
		gInv:       make([]float32, c),
		meanDy:     make([]float32, c),
		meanDyXhat: make([]float32, c),
		invStd:     make([]float32, c),
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
	if train {
		tensor.BatchNormStats(b.mean, b.variance, x)
		for ch := range b.c {
			b.runMean[ch] = float32(b.momentum*b.runMean[ch]) + float32((1-b.momentum)*b.mean[ch])
			b.runVar[ch] = float32(b.momentum*b.runVar[ch]) + float32((1-b.momentum)*b.variance[ch])
		}
	} else {
		copy(b.mean, b.runMean)
		copy(b.variance, b.runVar)
	}
	for ch, v := range b.variance {
		b.invStd[ch] = float32(1 / math.Sqrt(float64(v)+float64(b.eps)))
	}
	for s := 0; s < x.Rows; s++ {
		tensor.BatchNormApply(b.y.Row(s), b.xhat.Row(s), x.Row(s), b.mean, b.invStd, b.gamma.Value.Data, b.beta.Value.Data)
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
	tensor.BatchNormGradSums(b.meanDy, b.meanDyXhat, dout, b.xhat)
	dBeta, dGamma := b.beta.liveGrad().Data, b.gamma.liveGrad().Data
	for c := range b.c {
		dBeta[c] += b.meanDy[c]
		dGamma[c] += b.meanDyXhat[c]
		b.gInv[c] = b.gamma.Value.Data[c] * b.invStd[c]
		b.meanDy[c] /= count
		b.meanDyXhat[c] /= count
	}
	for s := 0; s < dout.Rows; s++ {
		tensor.BatchNormInputGrad(b.dx.Row(s), dout.Row(s), b.xhat.Row(s), b.gInv, b.meanDy, b.meanDyXhat)
	}
	return b.dx
}
