package nn

import (
	"fmt"
	"math"

	"repro/tensor"
)

// SGD is stochastic gradient descent with classical momentum, the
// optimiser the paper uses throughout (§4.4: "an SGD optimizer with
// default momentum, 0.9 for most architectures").
type SGD struct {
	lr          float32
	momentum    float32
	weightDecay float32
	params      []*Param
	velocity    []*tensor.Matrix
}

// NewSGD builds an optimiser over params.
func NewSGD(params []*Param, lr, momentum float32) *SGD {
	s := &SGD{lr: lr, momentum: momentum, params: params}
	s.velocity = make([]*tensor.Matrix, len(params))
	for i, p := range params {
		s.velocity[i] = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	return s
}

// LR returns the current learning rate.
func (s *SGD) LR() float32 { return s.lr }

// Momentum returns the momentum coefficient μ.
func (s *SGD) Momentum() float32 { return s.momentum }

// WeightDecay returns the L2 regularisation coefficient λ.
func (s *SGD) WeightDecay() float32 { return s.weightDecay }

// Velocity returns the optimiser's momentum buffers, one per parameter
// in parameter order. The matrices alias live optimiser state: resume
// machinery (repro/elastic) reads them to checkpoint mid-run momentum
// and writes them to restore it — a resumed run is only bit-identical
// to an uninterrupted one if v travels with w.
func (s *SGD) Velocity() []*tensor.Matrix { return s.velocity }

// SetLR updates the learning rate (used by schedules between epochs).
func (s *SGD) SetLR(lr float32) { s.lr = lr }

// SetWeightDecay sets the L2 regularisation coefficient λ; the
// effective gradient becomes g + λ·w, as in CNTK's SGD recipes.
func (s *SGD) SetWeightDecay(wd float32) { s.weightDecay = wd }

// Step applies one update to the gradients as stored: StepScaled(1),
// multiplying by 1 being exact.
func (s *SGD) Step() { s.StepScaled(1) }

// StepScaled applies one update with every gradient first multiplied by
// a — a data-parallel step passes its 1/K average here, folding it into
// the update pass instead of a pass of its own. Per element, in this
// order, each operation rounded to float32 and none fused
// (tensor.MomentumStep):
//
//	g ← a·g
//	d ← g + λ·w     (only when λ ≠ 0; otherwise d is g)
//	v ← μ·v − η·d
//	w ← w + v
//
// The scaled gradient a·g is stored back in Param.Grad, so after the
// step it holds the gradient the update consumed; the caller zeroes it
// before the next backward pass.
func (s *SGD) StepScaled(a float32) {
	for i, p := range s.params {
		tensor.MomentumStep(p.Value.Data, s.velocity[i].Data, p.Grad.Data, a, s.momentum, s.lr, s.weightDecay)
	}
}

// ClipGradNorm rescales the concatenated gradient of params so its
// global L2 norm does not exceed maxNorm, returning the norm before
// clipping. CNTK's recurrent recipes clip gradients to stabilise LSTM
// training; the speech experiments use the same guard.
func ClipGradNorm(params []*Param, maxNorm float32) float64 {
	if maxNorm <= 0 {
		panic("nn: ClipGradNorm needs a positive bound")
	}
	var sq float64
	for _, p := range params {
		for _, v := range p.Grad.Data {
			sq += float64(float64(v) * float64(v))
		}
	}
	norm := math.Sqrt(sq)
	if norm <= float64(maxNorm) || norm == 0 {
		return norm
	}
	scale := float32(float64(maxNorm) / norm)
	for _, p := range params {
		p.Grad.Scale(scale)
	}
	return norm
}

// Schedule maps an epoch index to a learning rate.
type Schedule interface {
	// LRAt returns the learning rate for the given zero-based epoch.
	LRAt(epoch int) float32
}

// ConstantLR is a fixed learning rate.
type ConstantLR float32

// LRAt implements Schedule.
func (c ConstantLR) LRAt(int) float32 { return float32(c) }

// StepDecay multiplies the base rate by Gamma every Every epochs — the
// staircase schedule CNTK's image recipes use.
type StepDecay struct {
	Base  float32
	Gamma float32
	Every int
}

// LRAt implements Schedule.
func (s StepDecay) LRAt(epoch int) float32 {
	if s.Every <= 0 {
		return s.Base
	}
	lr := s.Base
	for e := s.Every; e <= epoch; e += s.Every {
		lr *= s.Gamma
	}
	return lr
}

// String renders the schedule for logs.
func (s StepDecay) String() string {
	return fmt.Sprintf("step(base=%g, gamma=%g, every=%d)", s.Base, s.Gamma, s.Every)
}

// Warmup linearly ramps the learning rate from Base/Epochs to Base over
// the first Epochs epochs, then delegates to After — the ramp large-
// batch data-parallel training commonly uses to avoid early divergence.
type Warmup struct {
	Base   float32
	Epochs int
	After  Schedule
}

// LRAt implements Schedule.
func (w Warmup) LRAt(epoch int) float32 {
	if w.Epochs > 0 && epoch < w.Epochs {
		return w.Base * float32(epoch+1) / float32(w.Epochs)
	}
	if w.After != nil {
		return w.After.LRAt(epoch)
	}
	return w.Base
}
