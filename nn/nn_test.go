package nn

import (
	"math"
	"testing"

	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

func TestNetworkDuplicateNames(t *testing.T) {
	r := rng.New(1)
	_, err := NewNetwork(NewDense("d", 2, 2, r), NewDense("d", 2, 2, r))
	if err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestNetworkParamAccounting(t *testing.T) {
	r := rng.New(2)
	net := MustNetwork(
		NewDense("d1", 10, 20, r), // 200 + 20
		NewReLU("r"),
		NewDense("d2", 20, 5, r), // 100 + 5
	)
	if got := net.NumParams(); got != 325 {
		t.Fatalf("NumParams = %d, want 325", got)
	}
	if got := len(net.Params()); got != 4 {
		t.Fatalf("param tensors = %d, want 4", got)
	}
	infos := net.TensorInfos()
	if infos[0].Name != "d1.W" || infos[0].Shape.Len() != 200 {
		t.Fatalf("unexpected tensor info: %+v", infos[0])
	}
}

// TestZeroGrads: a Backward after ZeroGrads leaves each gradient the
// step's own — the same bits as a first Backward into freshly allocated
// gradients, not the sum of two steps.
func TestZeroGrads(t *testing.T) {
	r := rng.New(3)
	net := MustNetwork(NewDense("d1", 4, 3, r))
	x := tensor.New(2, 4)
	x.FillNorm(r, 1)
	loss := NewSoftmaxCrossEntropy()
	step := func() []float32 {
		loss.Forward(net.Forward(x, true), []int{0, 1})
		net.Backward(loss.Backward([]int{0, 1}))
		var grads []float32
		for _, p := range net.Params() {
			grads = append(grads, p.Grad.Data...)
		}
		return grads
	}
	first := step()
	nonzero := false
	for _, v := range first {
		nonzero = nonzero || v != 0
	}
	if !nonzero {
		t.Fatal("expected nonzero gradients after backward")
	}
	net.ZeroGrads()
	for i, v := range step() {
		if math.Float32bits(v) != math.Float32bits(first[i]) {
			t.Fatalf("gradient %d after ZeroGrads and Backward is %v, the first step's was %v", i, v, first[i])
		}
	}
}

func TestSoftmaxProbsSumToOne(t *testing.T) {
	r := rng.New(4)
	logits := tensor.New(5, 7)
	logits.FillNorm(r, 3)
	loss := NewSoftmaxCrossEntropy()
	labels := []int{0, 1, 2, 3, 4}
	loss.Forward(logits, labels)
	for i := 0; i < 5; i++ {
		var sum float64
		for _, v := range loss.Probs().Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d probs sum to %v", i, sum)
		}
	}
}

func TestSoftmaxLossGradientSumsToZero(t *testing.T) {
	// Each row of d(logits) must sum to zero (softmax shift invariance).
	r := rng.New(5)
	logits := tensor.New(4, 6)
	logits.FillNorm(r, 2)
	loss := NewSoftmaxCrossEntropy()
	labels := []int{5, 0, 3, 2}
	loss.Forward(logits, labels)
	g := loss.Backward(labels)
	for i := 0; i < 4; i++ {
		var sum float64
		for _, v := range g.Row(i) {
			sum += float64(v)
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("row %d gradient sums to %v", i, sum)
		}
	}
}

func TestAccuracyAndTopK(t *testing.T) {
	logits := tensor.FromSlice(3, 4, []float32{
		9, 1, 2, 3, // argmax 0
		0, 1, 2, 9, // argmax 3
		5, 6, 4, 3, // argmax 1
	})
	labels := []int{0, 3, 0}
	if got := Accuracy(logits, labels); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("accuracy = %v", got)
	}
	if got := TopKAccuracy(logits, labels, 2); math.Abs(got-1) > 1e-9 {
		t.Fatalf("top-2 = %v, want 1", got)
	}
	if got := TopKAccuracy(logits, labels, 1); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("top-1 = %v", got)
	}
}

func TestSGDMomentumSemantics(t *testing.T) {
	p := newParam("w", 1, 1, quant.Shape{Rows: 1, Cols: 1})
	params := []*Param{p}
	opt := NewSGD(params, 0.1, 0.9)
	p.Grad.Data[0] = 1
	opt.Step() // v = -0.1, w = -0.1
	if got := p.Value.Data[0]; math.Abs(float64(got+0.1)) > 1e-7 {
		t.Fatalf("after step 1: %v", got)
	}
	p.Grad.Data[0] = 1
	opt.Step() // v = 0.9*(-0.1) - 0.1 = -0.19; w = -0.29
	if got := p.Value.Data[0]; math.Abs(float64(got+0.29)) > 1e-6 {
		t.Fatalf("after step 2: %v", got)
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Base: 1, Gamma: 0.1, Every: 10}
	cases := map[int]float32{0: 1, 9: 1, 10: 0.1, 19: 0.1, 20: 0.01}
	for epoch, want := range cases {
		if got := s.LRAt(epoch); math.Abs(float64(got-want)) > 1e-9 {
			t.Errorf("LRAt(%d) = %v, want %v", epoch, got, want)
		}
	}
	c := ConstantLR(0.5)
	if c.LRAt(100) != 0.5 {
		t.Error("ConstantLR should not vary")
	}
}

// TestTrainingLearnsBlobs: a small MLP must fit a linearly separable
// Gaussian-blob problem to high accuracy — the substrate sanity check
// everything in the accuracy study rests on.
func TestTrainingLearnsBlobs(t *testing.T) {
	r := rng.New(42)
	const dim, classes, n = 8, 3, 300
	x := tensor.New(n, dim)
	labels := make([]int, n)
	centers := tensor.New(classes, dim)
	centers.FillNorm(r, 3)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		for j := 0; j < dim; j++ {
			x.Set(i, j, centers.At(c, j)+r.Norm(0.5))
		}
	}
	net := MustNetwork(
		NewDense("d1", dim, 16, r),
		NewReLU("r1"),
		NewDense("d2", 16, classes, r),
	)
	loss := NewSoftmaxCrossEntropy()
	opt := NewSGD(net.Params(), 0.1, 0.9)
	for epoch := 0; epoch < 30; epoch++ {
		net.ZeroGrads()
		loss.Forward(net.Forward(x, true), labels)
		net.Backward(loss.Backward(labels))
		opt.Step()
	}
	logits := net.Forward(x, false)
	if acc := Accuracy(logits, labels); acc < 0.95 {
		t.Fatalf("MLP failed to fit blobs: accuracy %v", acc)
	}
}

// TestDeterministicTraining: identical seeds produce bit-identical
// trained weights.
func TestDeterministicTraining(t *testing.T) {
	build := func() (*Network, *tensor.Matrix, []int) {
		r := rng.New(7)
		net := MustNetwork(
			NewDense("d1", 4, 8, r),
			NewReLU("r1"),
			NewDense("d2", 8, 2, r),
		)
		x := tensor.New(16, 4)
		x.FillNorm(r, 1)
		labels := make([]int, 16)
		for i := range labels {
			labels[i] = i % 2
		}
		return net, x, labels
	}
	run := func() []float32 {
		net, x, labels := build()
		loss := NewSoftmaxCrossEntropy()
		opt := NewSGD(net.Params(), 0.05, 0.9)
		for it := 0; it < 20; it++ {
			net.ZeroGrads()
			loss.Forward(net.Forward(x, true), labels)
			net.Backward(loss.Backward(labels))
			opt.Step()
		}
		var out []float32
		for _, p := range net.Params() {
			out = append(out, p.Value.Data...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("training diverged at weight %d", i)
		}
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	r := rng.New(8)
	bn := NewBatchNorm("bn", 4, 1)
	x := tensor.New(32, 4)
	x.FillNorm(r, 2)
	for i := 0; i < 50; i++ {
		bn.Forward(x, true)
	}
	// In eval mode the output on the same input should be close to the
	// train-mode normalisation (running stats converge to batch stats).
	trainOut := bn.Forward(x, true).Clone()
	evalOut := bn.Forward(x, false)
	if !trainOut.Equal(evalOut, 0.2) {
		t.Fatal("eval-mode output far from train-mode after stats converged")
	}
}

func TestLSTMShapes(t *testing.T) {
	r := rng.New(9)
	l := NewLSTM("lstm", 5, 3, 7, r)
	x := tensor.New(4, 15)
	x.FillNorm(r, 1)
	y := l.Forward(x, true)
	if y.Rows != 4 || y.Cols != 7 {
		t.Fatalf("LSTM output %dx%d, want 4x7", y.Rows, y.Cols)
	}
	dx := l.Backward(y.Clone())
	if dx.Rows != 4 || dx.Cols != 15 {
		t.Fatalf("LSTM dx %dx%d, want 4x15", dx.Rows, dx.Cols)
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	r1 := rng.New(10)
	r2 := rng.New(11)
	a := MustNetwork(NewDense("d", 3, 3, r1))
	b := MustNetwork(NewDense("d", 3, 3, r2))
	if err := b.CopyWeightsFrom(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Params()[0].Value.Data {
		if a.Params()[0].Value.Data[i] != b.Params()[0].Value.Data[i] {
			t.Fatal("weights not copied")
		}
	}
}

func BenchmarkForwardBackwardCNN(b *testing.B) {
	r := rng.New(1)
	shape := tensor.ConvShape{InC: 3, InH: 16, InW: 16, OutC: 8, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv := NewConv2D("c1", shape, r)
	net := MustNetwork(conv, NewReLU("r1"), NewDense("d1", conv.OutLen(), 10, r))
	x := tensor.New(16, 3*16*16)
	x.FillNorm(r, 1)
	labels := make([]int, 16)
	loss := NewSoftmaxCrossEntropy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		loss.Forward(net.Forward(x, true), labels)
		net.Backward(loss.Backward(labels))
	}
}

// BenchmarkLSTM is one rank's forward and backward pass of the
// lstm_fp32_ring benchmark workload's recurrent layer: 12 frames of 8
// features, hidden size 32, a per-rank batch of 4.
func BenchmarkLSTM(b *testing.B) {
	r := rng.New(1)
	l := NewLSTM("lstm", 12, 8, 32, r)
	x := tensor.New(4, 12*8)
	x.FillNorm(r, 1)
	dout := tensor.New(4, 32)
	dout.FillNorm(r, 1)
	for _, pass := range []string{"forward", "backward"} {
		b.Run(pass, func(b *testing.B) {
			l.Forward(x, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pass == "forward" {
					l.Forward(x, true)
				} else {
					l.Backward(dout)
				}
			}
		})
	}
}

// BenchmarkCNN is one rank of the benchmark's cnn_fp32_chan step: the
// image CNN at batch 32 (64 split over two ranks), a training forward
// pass, the loss gradient and the backward pass.
func BenchmarkCNN(b *testing.B) {
	r := rng.New(1)
	net := benchCNN(r)
	loss := NewSoftmaxCrossEntropy()
	x := tensor.New(32, 3*12*12)
	x.FillNorm(r, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = r.Intn(10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		loss.Forward(net.Forward(x, true), labels)
		net.ZeroGrads()
		net.Backward(loss.Backward(labels))
	}
}
