package main

import (
	"time"

	"repro/rng"
	"repro/tensor"
)

// Adapter for the tensor layer: the two kernels the step leans on,
// timed alone at declared shapes with dense (no exact zero) operands —
// MatMul skips zero multiplicands, so ReLU sparsity would otherwise
// leak training state into a kernel figure.

// timeLoop calls fn in batches until budget has elapsed and returns the
// median nanoseconds per call over the batches.
func timeLoop(budget time.Duration, perBatch int, fn func()) float64 {
	fn() // warm: page in operands, size lazily allocated scratch
	var samples []float64
	start := time.Now()
	for len(samples) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < perBatch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(perBatch))
	}
	return median(samples)
}

// matmulGFLOPS measures tensor.MatMul at (m×k)·(k×n).
func matmulGFLOPS(s matmulShape, budget time.Duration) float64 {
	r := rng.New(7)
	a, b, dst := tensor.New(s.m, s.k), tensor.New(s.k, s.n), tensor.New(s.m, s.n)
	a.FillNorm(r, 1)
	b.FillNorm(r, 1)
	flop := 2 * float64(s.m) * float64(s.k) * float64(s.n)
	perBatch := int(2e6/flop) + 1
	ns := timeLoop(budget, perBatch, func() { tensor.MatMul(dst, a, b) })
	return flop / ns
}

// im2colUS measures tensor.Im2col on one image of the CNN's first
// convolution (3×12×12, 3×3 kernel, pad 1) — the larger of its two
// im2col calls. Workloads without convolutions report the same kernel:
// it is a property of the layer, not of their step.
func im2colUS(budget time.Duration) float64 {
	c := cnnConv1
	r := rng.New(7)
	img := tensor.New(1, c.InC*c.InH*c.InW)
	img.FillNorm(r, 1)
	cols := tensor.New(c.PatchLen(), c.OutH()*c.OutW())
	ns := timeLoop(budget, 64, func() { tensor.Im2col(c, img.Data, cols) })
	return ns / 1e3
}
