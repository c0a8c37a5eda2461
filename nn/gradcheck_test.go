package nn

import (
	"math"
	"testing"

	"repro/rng"
	"repro/tensor"
)

// numericalGrad estimates dLoss/dParam[idx] by central differences.
func numericalGrad(net *Network, loss *SoftmaxCrossEntropy, x *tensor.Matrix,
	labels []int, p *Param, idx int, eps float32) float64 {
	orig := p.Value.Data[idx]
	p.Value.Data[idx] = orig + eps
	lPlus := loss.Forward(net.Forward(x, true), labels)
	p.Value.Data[idx] = orig - eps
	lMinus := loss.Forward(net.Forward(x, true), labels)
	p.Value.Data[idx] = orig
	return (lPlus - lMinus) / float64(2*eps)
}

// checkGradients verifies backprop gradients against central differences
// on a sample of parameter entries.
func checkGradients(t *testing.T, net *Network, x *tensor.Matrix, labels []int) {
	t.Helper()
	loss := NewSoftmaxCrossEntropy()
	net.ZeroGrads()
	l := loss.Forward(net.Forward(x, true), labels)
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("loss is %v", l)
	}
	net.Backward(loss.Backward(labels))

	r := rng.New(999)
	const eps = 1e-2
	for _, p := range net.Params() {
		n := p.Value.Len()
		probes := 6
		if n < probes {
			probes = n
		}
		for k := 0; k < probes; k++ {
			idx := r.Intn(n)
			num := numericalGrad(net, loss, x, labels, p, idx, eps)
			ana := float64(p.Grad.Data[idx])
			denom := math.Abs(num) + math.Abs(ana)
			if denom < 1e-4 {
				continue // both effectively zero
			}
			if rel := math.Abs(num-ana) / denom; rel > 0.08 {
				t.Errorf("%s[%d]: analytic %.6f vs numeric %.6f (rel %.3f)",
					p.Name, idx, ana, num, rel)
			}
		}
	}
}

func smallBatch(r *rng.RNG, batch, dim, classes int) (*tensor.Matrix, []int) {
	x := tensor.New(batch, dim)
	x.FillNorm(r, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = r.Intn(classes)
	}
	return x, labels
}

func TestGradDenseReLU(t *testing.T) {
	r := rng.New(1)
	net := MustNetwork(
		NewDense("d1", 6, 8, r),
		NewReLU("r1"),
		NewDense("d2", 8, 3, r),
	)
	x, labels := smallBatch(r, 4, 6, 3)
	checkGradients(t, net, x, labels)
}

func TestGradTanhSigmoid(t *testing.T) {
	r := rng.New(2)
	net := MustNetwork(
		NewDense("d1", 5, 7, r),
		NewTanh("t1"),
		NewDense("d2", 7, 7, r),
		NewSigmoid("s1"),
		NewDense("d3", 7, 2, r),
	)
	x, labels := smallBatch(r, 3, 5, 2)
	checkGradients(t, net, x, labels)
}

func TestGradConv2D(t *testing.T) {
	r := rng.New(3)
	shape := tensor.ConvShape{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	conv := NewConv2D("c1", shape, r)
	net := MustNetwork(
		conv,
		NewReLU("r1"),
		NewDense("d1", conv.OutLen(), 3, r),
	)
	x, labels := smallBatch(r, 2, 2*5*5, 3)
	checkGradients(t, net, x, labels)
}

func TestGradConvStrided(t *testing.T) {
	r := rng.New(4)
	shape := tensor.ConvShape{InC: 1, InH: 8, InW: 8, OutC: 2, KH: 3, KW: 3,
		StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}
	conv := NewConv2D("c1", shape, r)
	net := MustNetwork(conv, NewDense("d1", conv.OutLen(), 2, r))
	x, labels := smallBatch(r, 2, 64, 2)
	checkGradients(t, net, x, labels)
}

func TestGradMaxPool(t *testing.T) {
	r := rng.New(5)
	pool := NewMaxPool2D("p1", 2, 4, 4, 2, 2, 2, 2)
	net := MustNetwork(
		NewDense("d0", 32, 32, r),
		pool,
		NewDense("d1", pool.OutLen(), 2, r),
	)
	x, labels := smallBatch(r, 3, 32, 2)
	checkGradients(t, net, x, labels)
}

// TestMaxPoolNonFiniteWindow holds a diverged input to a finite step:
// a window of NaNs (or of NaNs and −Infs) pools to −Inf at its first
// tap, and Backward routes that output's gradient there instead of
// indexing the input at −1. It runs the 2×2 stride-2 geometry of the
// vector kernel and a 3×3 one, which the loop runs.
func TestMaxPoolNonFiniteWindow(t *testing.T) {
	nan, negInf := float32(math.NaN()), float32(math.Inf(-1))
	for _, g := range [][7]int{{1, 2, 2, 2, 2, 2, 2}, {1, 4, 4, 2, 2, 2, 2}, {1, 3, 3, 3, 3, 2, 2}} {
		pool := NewMaxPool2D("p", g[0], g[1], g[2], g[3], g[4], g[5], g[6])
		x := tensor.New(2, g[1]*g[2])
		x.Fill(nan)
		x.Data[len(x.Data)-1] = negInf
		y := pool.Forward(x, true)
		for i, v := range y.Data {
			if !math.IsInf(float64(v), -1) {
				t.Fatalf("%v: output %d is %v, want -Inf", g, i, v)
			}
		}
		dout := tensor.New(y.Rows, y.Cols)
		dout.Fill(1)
		dx := pool.Backward(dout)
		for s := 0; s < dx.Rows; s++ {
			if row := dx.Row(s); row[0] != 1 {
				t.Errorf("%v: sample %d: input gradient %v, want 1 at the first tap", g, s, row)
			}
		}
	}
}

func TestGradGlobalAvgPool(t *testing.T) {
	r := rng.New(6)
	net := MustNetwork(
		NewDense("d0", 18, 18, r),
		NewGlobalAvgPool("g1", 2, 3, 3),
		NewDense("d1", 2, 2, r),
	)
	x, labels := smallBatch(r, 3, 18, 2)
	checkGradients(t, net, x, labels)
}

func TestGradBatchNormDense(t *testing.T) {
	r := rng.New(7)
	net := MustNetwork(
		NewDense("d1", 5, 6, r),
		NewBatchNorm("bn1", 6, 1),
		NewReLU("r1"),
		NewDense("d2", 6, 3, r),
	)
	x, labels := smallBatch(r, 8, 5, 3)
	checkGradients(t, net, x, labels)
}

func TestGradBatchNormSpatial(t *testing.T) {
	r := rng.New(8)
	net := MustNetwork(
		NewDense("d0", 24, 24, r),
		NewBatchNorm("bn1", 2, 12),
		NewDense("d2", 24, 2, r),
	)
	x, labels := smallBatch(r, 4, 24, 2)
	checkGradients(t, net, x, labels)
}

func TestGradResidualBlock(t *testing.T) {
	r := rng.New(9)
	net := MustNetwork(
		NewDense("d0", 6, 6, r),
		NewResidual("res1",
			NewDense("res1.d1", 6, 6, r),
			NewReLU("res1.r"),
			NewDense("res1.d2", 6, 6, r),
		),
		NewDense("d1", 6, 3, r),
	)
	x, labels := smallBatch(r, 4, 6, 3)
	checkGradients(t, net, x, labels)
}

func TestGradLSTM(t *testing.T) {
	r := rng.New(10)
	lstm := NewLSTM("lstm", 4, 3, 5, r)
	net := MustNetwork(
		lstm,
		NewDense("d1", 5, 2, r),
	)
	x, labels := smallBatch(r, 3, 12, 2)
	checkGradients(t, net, x, labels)
}

func TestGradLSTMDeep(t *testing.T) {
	r := rng.New(11)
	// Two stacked LSTMs: the second consumes the first's final hidden
	// state as a length-1 sequence.
	l1 := NewLSTM("lstm1", 3, 4, 6, r)
	l2 := NewLSTM("lstm2", 1, 6, 4, r)
	net := MustNetwork(l1, l2, NewDense("d1", 4, 2, r))
	x, labels := smallBatch(r, 2, 12, 2)
	checkGradients(t, net, x, labels)
}

func TestGradDropoutEvalIdentity(t *testing.T) {
	r := rng.New(12)
	d := NewDropout("drop", 0.5, r)
	x := tensor.New(3, 4)
	x.FillNorm(r, 1)
	y := d.Forward(x, false)
	if !y.Equal(x, 0) {
		t.Fatal("dropout in eval mode must be identity")
	}
}
