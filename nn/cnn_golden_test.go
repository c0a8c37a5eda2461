package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/rng"
	"repro/tensor"
)

var updateCNNGolden = flag.Bool("update-cnn-golden", false,
	"rewrite testdata/cnn_golden.json from the arithmetic this build runs")

// layerDigest hashes five training steps of one layer on a batch of
// rows×cols seeded inputs: each step's Forward output, the input
// gradient and parameter gradients of its Backward, then the
// parameters after the SGD step; and finally an evaluation-mode
// Forward and its Backward. fill sets the input of each step.
func layerDigest(layer Layer, rows, cols int, seed uint64, fill func(r *rng.RNG, x *tensor.Matrix)) string {
	const steps = 5
	r := rng.New(seed)
	x := tensor.New(rows, cols)
	opt := NewSGD(layer.Params(), 0.1, 0.9)
	sum := sha256.New()
	for step := 0; step <= steps; step++ {
		fill(r, x)
		train := step < steps
		y := layer.Forward(x, train)
		hashFloats(sum, y.Data)
		dout := tensor.New(y.Rows, y.Cols)
		dout.FillNorm(r, 1)
		for _, p := range layer.Params() {
			p.Grad.Zero()
		}
		hashFloats(sum, layer.Backward(dout).Data)
		for _, p := range layer.Params() {
			hashFloats(sum, p.Grad.Data)
		}
		if train {
			opt.Step()
			for _, p := range layer.Params() {
				hashFloats(sum, p.Value.Data)
			}
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// fillNorm draws every input from N(0, 2²).
func fillNorm(r *rng.RNG, x *tensor.Matrix) { x.FillNorm(r, 2) }

// fillSpecial draws inputs that single out the glue layers' edges:
// small integers, so a pooling window holds ties, with both zeros and
// denormals among them, and one input in 23 an infinity or a NaN. No
// window of the pooling cases is left without a finite value.
func fillSpecial(r *rng.RNG, x *tensor.Matrix) {
	specials := []float32{float32(math.Copysign(0, -1)), 0, 1e-40, -1e-40,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.Float32frombits(0xffc00001)}
	for i := range x.Data {
		switch {
		case i%23 == 5:
			x.Data[i] = specials[4+r.Intn(4)]
		case i%7 == 3:
			x.Data[i] = specials[r.Intn(4)]
		default:
			x.Data[i] = float32(r.Intn(5) - 2)
		}
	}
}

// benchCNN is the benchmark's image network: conv-BN-ReLU-pool twice
// over 3×12×12 inputs, then a 64-wide hidden layer and ten classes.
func benchCNN(r *rng.RNG) *Network {
	return MustNetwork(
		NewConv2D("conv1", tensor.ConvShape{InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r),
		NewBatchNorm("bn1", 8, 12*12),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 8, 12, 12, 2, 2, 2, 2),
		NewConv2D("conv2", tensor.ConvShape{InC: 8, InH: 6, InW: 6, OutC: 16, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r),
		NewBatchNorm("bn2", 16, 6*6),
		NewReLU("relu2"),
		NewMaxPool2D("pool2", 16, 6, 6, 2, 2, 2, 2),
		NewDense("fc1", 16*3*3, 64, r),
		NewReLU("relu3"),
		NewDense("fc2", 64, 10, r),
	)
}

// cnnDigest hashes five SGD steps of the benchmark CNN at a batch
// size: the logits, the input gradient, every parameter gradient and
// every parameter after the step; then the logits of an evaluation
// pass, which reads BatchNorm's running statistics.
func cnnDigest(batch int) string {
	const steps = 5
	r := rng.New(uint64(7000 + batch))
	net := benchCNN(r)
	loss := NewSoftmaxCrossEntropy()
	opt := NewSGD(net.Params(), 0.05, 0.9)
	x := tensor.New(batch, 3*12*12)
	labels := make([]int, batch)
	sum := sha256.New()
	for step := 0; step < steps; step++ {
		x.FillNorm(r, 1)
		for i := range labels {
			labels[i] = r.Intn(10)
		}
		logits := net.Forward(x, true)
		hashFloats(sum, logits.Data)
		loss.Forward(logits, labels)
		net.ZeroGrads()
		hashFloats(sum, net.Backward(loss.Backward(labels)).Data)
		for _, p := range net.Params() {
			hashFloats(sum, p.Grad.Data)
		}
		opt.Step()
		for _, p := range net.Params() {
			hashFloats(sum, p.Value.Data)
		}
	}
	hashFloats(sum, net.Forward(x, false).Data)
	return hex.EncodeToString(sum.Sum(nil))
}

// TestCNNGolden pins the arithmetic of the CNN's layers (Conv2D and
// its im2col lowering, BatchNorm in training and evaluation, ReLU,
// MaxPool2D) and of the benchmark CNN end to end to digests recorded
// before these layers moved onto the vector kernels.
func TestCNNGolden(t *testing.T) {
	got := map[string]string{}
	convs := []tensor.ConvShape{
		{InC: 3, InH: 7, InW: 7, OutC: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 3, InH: 7, InW: 7, OutC: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1},
		{InC: 3, InH: 7, InW: 7, OutC: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1},
		{InC: 3, InH: 7, InW: 7, OutC: 5, KH: 3, KW: 3, StrideH: 2, StrideW: 2},
		{InC: 2, InH: 5, InW: 9, OutC: 3, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{InC: 4, InH: 6, InW: 5, OutC: 3, KH: 1, KW: 1, StrideH: 1, StrideW: 1},
		{InC: 2, InH: 6, InW: 8, OutC: 3, KH: 3, KW: 1, StrideH: 1, StrideW: 1, PadH: 1},
		{InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{InC: 8, InH: 6, InW: 6, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
	}
	for i, s := range convs {
		key := fmt.Sprintf("conv/%dx%dx%d/k%dx%d/s%d/p%dx%d", s.InC, s.InH, s.InW, s.KH, s.KW, s.StrideH, s.PadH, s.PadW)
		conv := NewConv2D("c", s, rng.New(uint64(100+i)))
		got[key] = layerDigest(conv, 3, s.InC*s.InH*s.InW, uint64(200+i), fillNorm)
	}
	for _, c := range []int{3, 8, 13} {
		for _, spatial := range []int{1, 36, 37} {
			for _, rows := range []int{1, 5, 32} {
				key := fmt.Sprintf("batchnorm/c=%d/spatial=%d/batch=%d", c, spatial, rows)
				got[key] = layerDigest(NewBatchNorm("bn", c, spatial), rows, c*spatial, uint64(1000*c+10*spatial+rows), fillNorm)
			}
		}
	}
	for _, shape := range [][2]int{{1, 16}, {3, 7}, {5, 33}, {32, 1152}} {
		rows, cols := shape[0], shape[1]
		key := fmt.Sprintf("relu/%dx%d", rows, cols)
		got[key] = layerDigest(NewReLU("r"), rows, cols, uint64(100*rows+cols), fillSpecial)
	}
	pools := [][7]int{ // c, h, w, kh, kw, strideH, strideW
		{8, 12, 12, 2, 2, 2, 2},
		{16, 6, 6, 2, 2, 2, 2},
		{3, 6, 10, 2, 2, 2, 2},
		{3, 7, 5, 2, 2, 2, 2},
		{2, 4, 4, 2, 2, 1, 1},
		{3, 7, 9, 3, 3, 2, 2},
		{2, 8, 8, 3, 3, 2, 2},
	}
	for _, g := range pools {
		key := fmt.Sprintf("maxpool/%dx%dx%d/k%dx%d/s%dx%d", g[0], g[1], g[2], g[3], g[4], g[5], g[6])
		pool := NewMaxPool2D("p", g[0], g[1], g[2], g[3], g[4], g[5], g[6])
		got[key] = layerDigest(pool, 3, g[0]*g[1]*g[2], uint64(g[0]*g[1]*g[2]), fillSpecial)
	}
	for _, batch := range []int{1, 7, 32} {
		got[fmt.Sprintf("cnn/batch=%d", batch)] = cnnDigest(batch)
	}

	const path = "testdata/cnn_golden.json"
	if *updateCNNGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("computed %d cases, golden has %d", len(got), len(want))
	}
	for key, sum := range want {
		if got[key] != sum {
			t.Errorf("%s: digest %.16s…, golden %.16s…", key, got[key], sum)
		}
	}
}
