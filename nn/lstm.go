package nn

import (
	"fmt"
	"math"

	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

// LSTM is a single long short-term memory layer unrolled over fixed-
// length sequences. Inputs arrive one sample per row as T concatenated
// frames of D features (row length T·D); the layer emits the final
// hidden state (batch × H), which a dense classifier head consumes —
// the shape of the paper's AN4 speech model.
//
// Gate order inside the fused weight matrices is input, forget, cell
// candidate, output. The forget-gate bias is initialised to 1, the usual
// trick for trainability over longer sequences.
type LSTM struct {
	name    string
	t, d, h int

	wx, wh, b *Param

	// Per-timestep caches for backpropagation through time.
	xs, hs, cs             []*tensor.Matrix // inputs, hidden, cell (hs/cs have T+1 entries)
	gi, gf, gg, go_, tanhC []*tensor.Matrix

	// Scratch reused by every timestep, sized with the caches: the gate
	// pre-activations and their gradient, the state gradients carried
	// backwards, and the parameter-gradient products before they join
	// the Grads.
	z, zh, dz      *tensor.Matrix
	dh, dc, dhPrev *tensor.Matrix
	dxt, dwx, dwh  *tensor.Matrix
	dx             *tensor.Matrix
}

// NewLSTM builds an LSTM over sequences of t frames with d features and
// hidden size h.
func NewLSTM(name string, t, d, h int, r *rng.RNG) *LSTM {
	if t <= 0 || d <= 0 || h <= 0 {
		panic(fmt.Sprintf("nn: bad LSTM geometry %s", name))
	}
	l := &LSTM{
		name: name, t: t, d: d, h: h,
		wx: newParam(name+".Wx", d, 4*h, quant.Shape{Rows: 4 * h, Cols: d}),
		wh: newParam(name+".Wh", h, 4*h, quant.Shape{Rows: 4 * h, Cols: h}),
		b:  newParam(name+".b", 1, 4*h, quant.Shape{Rows: 4 * h, Cols: 1}),
	}
	stdX := float32(math.Sqrt(1.0 / float64(d)))
	stdH := float32(math.Sqrt(1.0 / float64(h)))
	l.wx.Value.FillNorm(r, stdX)
	l.wh.Value.FillNorm(r, stdH)
	for j := h; j < 2*h; j++ { // forget gate bias
		l.b.Value.Data[j] = 1
	}
	return l
}

// HiddenSize returns H.
func (l *LSTM) HiddenSize() int { return l.h }

// Name implements Layer.
func (l *LSTM) Name() string { return l.name }

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// Forward implements Layer.
func (l *LSTM) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != l.t*l.d {
		panic(fmt.Sprintf("nn: %s expects %d inputs (T=%d×D=%d), got %d",
			l.name, l.t*l.d, l.t, l.d, x.Cols))
	}
	batch := x.Rows
	l.ensureCaches(batch)
	l.hs[0].Zero()
	l.cs[0].Zero()

	z, zh := l.z, l.zh
	for t := 0; t < l.t; t++ {
		xt := l.xs[t]
		for s := 0; s < batch; s++ {
			copy(xt.Row(s), x.Row(s)[t*l.d:(t+1)*l.d])
		}
		tensor.MatMulAddBias(z, xt, l.wx.Value, l.b.Value)
		tensor.MatMul(zh, l.hs[t], l.wh.Value)
		z.Add(zh)
		// The gate activations, row by row: the gates of a sample are
		// four runs of z's row.
		gi, gf, gg, go_ := l.gi[t], l.gf[t], l.gg[t], l.go_[t]
		for s := 0; s < batch; s++ {
			zr := z.Row(s)
			tensor.Sigmoid(gi.Row(s), zr[:l.h])
			tensor.Sigmoid(gf.Row(s), zr[l.h:2*l.h])
			tensor.Tanh(gg.Row(s), zr[2*l.h:3*l.h])
			tensor.Sigmoid(go_.Row(s), zr[3*l.h:])
		}
		// The cell and hidden state, over the whole batch at once.
		i, f, g, o := gi.Data, gf.Data, gg.Data, go_.Data
		cp, cn, hn, tc := l.cs[t].Data, l.cs[t+1].Data, l.hs[t+1].Data, l.tanhC[t].Data
		for j := range cn {
			cn[j] = float32(f[j]*cp[j]) + float32(i[j]*g[j])
		}
		tensor.Tanh(tc, cn)
		for j := range hn {
			hn[j] = o[j] * tc[j]
		}
	}
	return l.hs[l.t]
}

// Backward implements Layer (backpropagation through time from the final
// hidden state).
func (l *LSTM) Backward(dout *tensor.Matrix) *tensor.Matrix {
	batch := dout.Rows
	dh, dc, dz, dxt, dhPrev, dwx, dwh := l.dh, l.dc, l.dz, l.dxt, l.dhPrev, l.dwx, l.dwh
	dh.CopyFrom(dout)
	dc.Zero()
	for t := l.t - 1; t >= 0; t-- {
		// The gate gradients; dc is carried to t-1.
		for s := 0; s < batch; s++ {
			tensor.LSTMGateGrads(dz.Row(s), dc.Row(s), dh.Row(s),
				l.gi[t].Row(s), l.gf[t].Row(s), l.gg[t].Row(s), l.go_[t].Row(s),
				l.tanhC[t].Row(s), l.cs[t].Row(s))
		}
		// Parameter gradients.
		tensor.MatMulTransA(dwx, l.xs[t], dz)
		l.wx.Grad.Add(dwx)
		tensor.MatMulTransA(dwh, l.hs[t], dz)
		l.wh.Grad.Add(dwh)
		for s := 0; s < batch; s++ {
			tensor.Add(l.b.Grad.Data, dz.Row(s))
		}
		// Input and previous-hidden gradients.
		tensor.MatMulTransB(dxt, dz, l.wx.Value)
		for s := 0; s < batch; s++ {
			copy(l.dx.Row(s)[t*l.d:(t+1)*l.d], dxt.Row(s))
		}
		tensor.MatMulTransB(dhPrev, dz, l.wh.Value)
		dh.CopyFrom(dhPrev)
	}
	return l.dx
}

func (l *LSTM) ensureCaches(batch int) {
	if len(l.xs) == l.t && l.xs[0].Rows == batch {
		return
	}
	if len(l.xs) != l.t {
		l.xs = make([]*tensor.Matrix, l.t)
		l.gi = make([]*tensor.Matrix, l.t)
		l.gf = make([]*tensor.Matrix, l.t)
		l.gg = make([]*tensor.Matrix, l.t)
		l.go_ = make([]*tensor.Matrix, l.t)
		l.tanhC = make([]*tensor.Matrix, l.t)
		l.hs = make([]*tensor.Matrix, l.t+1)
		l.cs = make([]*tensor.Matrix, l.t+1)
		l.dwx, l.dwh = tensor.New(l.d, 4*l.h), tensor.New(l.h, 4*l.h)
	}
	for t := 0; t < l.t; t++ {
		l.xs[t] = tensor.Reuse(l.xs[t], batch, l.d)
		l.gi[t] = tensor.Reuse(l.gi[t], batch, l.h)
		l.gf[t] = tensor.Reuse(l.gf[t], batch, l.h)
		l.gg[t] = tensor.Reuse(l.gg[t], batch, l.h)
		l.go_[t] = tensor.Reuse(l.go_[t], batch, l.h)
		l.tanhC[t] = tensor.Reuse(l.tanhC[t], batch, l.h)
	}
	for t := 0; t <= l.t; t++ {
		l.hs[t] = tensor.Reuse(l.hs[t], batch, l.h)
		l.cs[t] = tensor.Reuse(l.cs[t], batch, l.h)
	}
	l.z, l.zh, l.dz = tensor.Reuse(l.z, batch, 4*l.h), tensor.Reuse(l.zh, batch, 4*l.h), tensor.Reuse(l.dz, batch, 4*l.h)
	l.dh, l.dc, l.dhPrev = tensor.Reuse(l.dh, batch, l.h), tensor.Reuse(l.dc, batch, l.h), tensor.Reuse(l.dhPrev, batch, l.h)
	l.dxt, l.dx = tensor.Reuse(l.dxt, batch, l.d), tensor.Reuse(l.dx, batch, l.t*l.d)
}
