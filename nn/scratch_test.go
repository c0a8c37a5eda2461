package nn

import (
	"math"
	"testing"

	"repro/rng"
	"repro/tensor"
)

// scratchNets builds, from one seed, a network of every layer kind that
// keeps per-batch scratch, together with its input width and class
// count: an MLP (dense, ReLU, tanh, sigmoid, dropout, residual), a CNN
// (conv, batch norm, max and average pooling, global average pooling)
// and an LSTM.
func scratchNets(seed uint64) []struct {
	name         string
	net          *Network
	dim, classes int
} {
	r := rng.New(seed)
	shape := tensor.ConvShape{InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	return []struct {
		name         string
		net          *Network
		dim, classes int
	}{
		{"mlp", MustNetwork(
			NewDense("d1", 12, 16, r), NewReLU("r1"), NewDropout("drop", 0.25, r),
			NewResidual("res", NewDense("d2", 16, 16, r), NewTanh("t1")),
			NewDense("d3", 16, 16, r), NewSigmoid("s1"), NewDense("d4", 16, 3, r),
		), 12, 3},
		{"cnn", MustNetwork(
			NewConv2D("c1", shape, r), NewBatchNorm("bn", 4, 64), NewReLU("r1"),
			NewMaxPool2D("mp", 4, 8, 8, 2, 2, 2, 2), NewAvgPool2D("ap", 4, 4, 4, 2, 2, 1, 1),
			NewGlobalAvgPool("gap", 4, 3, 3), NewDense("d1", 4, 3, r),
		), 64, 3},
		{"lstm", MustNetwork(NewLSTM("lstm", 4, 3, 5, r), NewDense("d1", 5, 3, r)), 12, 3},
	}
}

// TestScratchGrowsOnly: a full-size evaluation between training steps,
// as Trainer.Evaluate makes one, leaves every layer's scratch large
// enough for both batches, so once both sizes have been seen neither
// allocates in nn; and the steps train to the same bits as without the
// evaluations, so no value survives in a resliced buffer into a later
// result.
func TestScratchGrowsOnly(t *testing.T) {
	const trainRows, evalRows = 8, 256
	interleaved, plain := scratchNets(1), scratchNets(1)
	for i, c := range interleaved {
		r := rng.New(2)
		x, labels := smallBatch(r, trainRows, c.dim, c.classes)
		eval, _ := smallBatch(r, evalRows, c.dim, c.classes)
		step := func(net *Network, loss *SoftmaxCrossEntropy, opt *SGD) {
			net.ZeroGrads()
			loss.Forward(net.Forward(x, true), labels)
			net.Backward(loss.Backward(labels))
			opt.Step()
		}
		loss, opt := NewSoftmaxCrossEntropy(), NewSGD(c.net.Params(), 0.05, 0.9)
		round := func() {
			c.net.Forward(eval, false)
			step(c.net, loss, opt)
		}
		round()
		round()
		if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
			t.Errorf("%s: an evaluation and a step allocate %v times, want 0", c.name, allocs)
		}
		ref := plain[i].net
		refLoss, refOpt := NewSoftmaxCrossEntropy(), NewSGD(ref.Params(), 0.05, 0.9)
		for s := 0; s < 2+5+1; s++ { // round() ran AllocsPerRun's warm-up call too
			step(ref, refLoss, refOpt)
		}
		for pi, p := range c.net.Params() {
			for j, v := range p.Value.Data {
				if w := ref.Params()[pi].Value.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s: %s[%d] = %v after steps between evaluations, %v without", c.name, p.Name, j, v, w)
				}
			}
		}
	}
}
