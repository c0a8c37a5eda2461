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
		hNext, cNext := l.hs[t+1], l.cs[t+1]
		cPrev := l.cs[t]
		for s := 0; s < batch; s++ {
			zr := z.Row(s)
			ir, fr := l.gi[t].Row(s), l.gf[t].Row(s)
			gr, or := l.gg[t].Row(s), l.go_[t].Row(s)
			tc := l.tanhC[t].Row(s)
			cp, cn, hn := cPrev.Row(s), cNext.Row(s), hNext.Row(s)
			for j := 0; j < l.h; j++ {
				i := sigmoidScalar(zr[j])
				f := sigmoidScalar(zr[l.h+j])
				g := float32(math.Tanh(float64(zr[2*l.h+j])))
				o := sigmoidScalar(zr[3*l.h+j])
				c := float32(f*cp[j]) + float32(i*g)
				th := float32(math.Tanh(float64(c)))
				ir[j], fr[j], gr[j], or[j] = i, f, g, o
				cn[j], tc[j] = c, th
				hn[j] = o * th
			}
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
		cPrev := l.cs[t]
		for s := 0; s < batch; s++ {
			dhr, dcr := dh.Row(s), dc.Row(s)
			ir, fr := l.gi[t].Row(s), l.gf[t].Row(s)
			gr, or := l.gg[t].Row(s), l.go_[t].Row(s)
			tc := l.tanhC[t].Row(s)
			cp := cPrev.Row(s)
			dzr := dz.Row(s)
			for j := 0; j < l.h; j++ {
				do := dhr[j] * tc[j]
				dcj := dcr[j] + float32(dhr[j]*or[j]*(1-float32(tc[j]*tc[j])))
				di := dcj * gr[j]
				df := dcj * cp[j]
				dg := dcj * ir[j]
				dzr[j] = di * ir[j] * (1 - ir[j])
				dzr[l.h+j] = df * fr[j] * (1 - fr[j])
				dzr[2*l.h+j] = dg * (1 - float32(gr[j]*gr[j]))
				dzr[3*l.h+j] = do * or[j] * (1 - or[j])
				dcr[j] = dcj * fr[j] // carried to t-1
			}
		}
		// Parameter gradients.
		tensor.MatMulTransA(dwx, l.xs[t], dz)
		l.wx.Grad.Add(dwx)
		tensor.MatMulTransA(dwh, l.hs[t], dz)
		l.wh.Grad.Add(dwh)
		for s := 0; s < batch; s++ {
			dzr := dz.Row(s)
			for j, v := range dzr {
				l.b.Grad.Data[j] += v
			}
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
