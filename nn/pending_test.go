package nn

import (
	"math"
	"testing"

	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

// frozen is a layer with a parameter its Backward adds nothing to: what
// Network.Backward must clear when ZeroGrads left it pending.
type frozen struct{ p *Param }

func (f *frozen) Name() string                                    { return "frozen" }
func (f *frozen) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix { return x }
func (f *frozen) Backward(d *tensor.Matrix) *tensor.Matrix        { return d }
func (f *frozen) Params() []*Param                                { return []*Param{f.p} }

// pendingNets builds, from one seed, one network per layer kind whose
// Backward begins a gradient: input width, output width and the net.
func pendingNets(seed uint64) []struct {
	name    string
	in, out int
	net     *Network
} {
	r := rng.New(seed)
	shape := tensor.ConvShape{InC: 2, InH: 5, InW: 5, OutC: 3, KH: 3, KW: 3,
		StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	return []struct {
		name    string
		in, out int
		net     *Network
	}{
		{"dense", 6, 9, MustNetwork(NewDense("d", 6, 9, r))},
		{"conv", 50, 75, MustNetwork(NewConv2D("c", shape, r))},
		{"batchnorm", 12, 12, MustNetwork(NewBatchNorm("bn", 3, 4))},
		{"lstm", 12, 5, MustNetwork(NewLSTM("l", 3, 4, 5, r))},
		{"frozen", 4, 4, MustNetwork(&frozen{newParam("f", 2, 3, quant.Shape{Rows: 3, Cols: 2})})},
	}
}

// specialFill draws N(0, 1) values with ±0, ±Inf and NaN among them,
// and makes column zeroCol all −0, so a gradient sum over it is −0
// unless it starts from +0.
func specialFill(r *rng.RNG, m *tensor.Matrix, zeroCol int) {
	specials := []float32{float32(math.Copysign(0, -1)), 0, float32(math.Inf(1)),
		float32(math.Inf(-1)), float32(math.NaN()), math.Float32frombits(0x7fc00123)}
	for i := range m.Data {
		m.Data[i] = r.Norm(1)
		if i%17 == 9 {
			m.Data[i] = specials[r.Intn(len(specials))]
		}
		if i%m.Cols == zeroCol {
			m.Data[i] = specials[0]
		}
	}
}

// TestPendingZeroGradsMatchClearAndAdd is the differential test of
// pending-zero gradients: ZeroGrads and Backward leave every gradient
// and the input gradient with the bits of a reference that clears each
// gradient and accumulates every product through scratch and Add, with
// ±0, ±Inf and NaN among inputs and output gradients, whatever stale
// values the gradient memory held. A second Backward without ZeroGrads
// still accumulates. It runs on the kernels the CPU selects; that the
// products behind it start from +0 on every path is tensor's
// TestGEMMStartsFromPlusZero.
func TestPendingZeroGradsMatchClearAndAdd(t *testing.T) {
	pending, ref := pendingNets(5), pendingNets(5)
	for i, c := range pending {
		r := rng.New(uint64(11 + i))
		for pass := 0; pass < 3; pass++ {
			const batch = 3
			x, dout := tensor.New(batch, c.in), tensor.New(batch, c.out)
			specialFill(r, x, -1)
			specialFill(r, dout, 1)
			if pass < 2 {
				// Stale gradients: the pending net's stay in memory, the
				// reference clears its own.
				for j, p := range c.net.Params() {
					specialFill(r, p.Grad, -1)
					ref[i].net.Params()[j].Grad.Zero()
				}
				c.net.ZeroGrads()
			}
			// pass 2 accumulates on top of pass 1 in both nets.
			c.net.Forward(x, true)
			dx := c.net.Backward(dout)
			ref[i].net.Forward(x, true)
			wantDx := ref[i].net.Backward(dout)
			sameGradBits(t, c.name+" dx", pass, dx.Data, wantDx.Data)
			for j, p := range c.net.Params() {
				sameGradBits(t, c.name+" "+p.Name, pass, p.Grad.Data, ref[i].net.Params()[j].Grad.Data)
			}
		}
	}
}

// sameGradBits fails the test unless got and want hold the same float bits.
func sameGradBits(t *testing.T, what string, pass int, got, want []float32) {
	t.Helper()
	for k := range want {
		if math.Float32bits(got[k]) != math.Float32bits(want[k]) {
			t.Fatalf("pass %d: %s[%d] = %v (%#08x), reference %v (%#08x)", pass, what, k,
				got[k], math.Float32bits(got[k]), want[k], math.Float32bits(want[k]))
		}
	}
}
