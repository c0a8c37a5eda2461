package main

import (
	"repro/nn"
	"repro/rng"
	"repro/tensor"
)

// Adapter for the nn layer: the model builders (copied here, not
// imported from internal/harness, so harness edits cannot move the
// benchmark) and every nn call the layer replay makes.

type modelKind int

const (
	cnnModel modelKind = iota
	mlpModel
	lstmModel
)

// buildModel returns the deterministic replica builder of a workload.
func buildModel(w *workload) func(r *rng.RNG) *nn.Network {
	switch w.model {
	case cnnModel:
		return buildCNN(w.data.classes)
	case mlpModel:
		return facadeMLP(w.data.channels*w.data.h*w.data.w, 1024, 512, w.data.classes)
	default:
		return buildLSTM(w.data.frames, w.data.features, 32, w.data.classes)
	}
}

// cnnConv1 and cnnConv2 are the two convolution geometries of the CNN;
// tensor.im2col_us is measured on cnnConv1 (the larger im2col).
var (
	cnnConv1 = tensor.ConvShape{InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	cnnConv2 = tensor.ConvShape{InC: 8, InH: 6, InW: 6, OutC: 16, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
)

// buildCNN is the 3×12×12 conv-BN-ReLU-pool ×2 → fc64 → fc classifier
// of the paper-shaped image study.
func buildCNN(classes int) func(r *rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		return nn.MustNetwork(
			nn.NewConv2D("conv1", cnnConv1, r),
			nn.NewBatchNorm("bn1", 8, 12*12),
			nn.NewReLU("relu1"),
			nn.NewMaxPool2D("pool1", 8, 12, 12, 2, 2, 2, 2),
			nn.NewConv2D("conv2", cnnConv2, r),
			nn.NewBatchNorm("bn2", 16, 6*6),
			nn.NewReLU("relu2"),
			nn.NewMaxPool2D("pool2", 16, 6, 6, 2, 2, 2, 2),
			nn.NewDense("fc1", 16*3*3, 64, r),
			nn.NewReLU("relu3"),
			nn.NewDense("fc2", 64, classes, r),
		)
	}
}

// buildLSTM is one LSTM over frames×features inputs feeding a dense
// classifier.
func buildLSTM(frames, features, hidden, classes int) func(r *rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		return nn.MustNetwork(
			nn.NewLSTM("lstm1", frames, features, hidden, r),
			nn.NewDense("fc", hidden, classes, r),
		)
	}
}

// replica is one rank's model, loss head and optimiser in the layer
// replay — what parallel.Trainer holds per rank, rebuilt from outside.
type replica struct {
	net  *nn.Network
	loss *nn.SoftmaxCrossEntropy
	opt  *nn.SGD
}

func newReplica(w *workload, seed uint64) *replica {
	net := buildModel(w)(rng.New(seed))
	opt := nn.NewSGD(net.Params(), w.lr, 0.9)
	return &replica{net: net, loss: nn.NewSoftmaxCrossEntropy(), opt: opt}
}

func (r *replica) forward(x *tensor.Matrix, labels []int) float64 {
	r.net.ZeroGrads()
	return r.loss.Forward(r.net.Forward(x, true), labels)
}

func (r *replica) backward(labels []int) {
	r.net.Backward(r.loss.Backward(labels))
}

func (r *replica) step() { r.opt.Step() }

// grads returns the live gradient slices in parameter order.
func (r *replica) grads() [][]float32 {
	ps := r.net.Params()
	out := make([][]float32, len(ps))
	for i, p := range ps {
		out[i] = p.Grad.Data
	}
	return out
}

// scaleGrads averages the reduced sum over k ranks, as the engine does.
func (r *replica) scaleGrads(k int) {
	if k <= 1 {
		return
	}
	inv := 1 / float32(k)
	for _, p := range r.net.Params() {
		p.Grad.Scale(inv)
	}
}
