package main

import (
	"fmt"
	"math"
	"time"

	"repro/nn"
	"repro/quant"
)

// Adapter for the quant layer: the codec kernels alone, on the
// workload's real gradients, and the workload's plan over its whole
// tensor inventory.

// planFor evaluates a workload's policy string over a model's tensors.
func planFor(policy string, net *nn.Network) (*quant.Plan, error) {
	p, err := quant.ParsePolicy(policy)
	if err != nil {
		return nil, err
	}
	return quant.NewPlan(p, net.TensorInfos()), nil
}

// tensorShapes returns each parameter's CNTK wire shape.
func tensorShapes(net *nn.Network) []quant.Shape {
	ps := net.Params()
	out := make([]quant.Shape, len(ps))
	for i, p := range ps {
		out[i] = p.WireShape
	}
	return out
}

// codecThroughput measures one codec's encode and decode rate on src,
// in MB of raw float32 input (or output) per second.
func codecThroughput(name string, src []float32, shape quant.Shape, budget time.Duration) (encMBps, decMBps float64, err error) {
	c, err := quant.Parse(name)
	if err != nil {
		return 0, 0, err
	}
	n := len(src)
	enc := c.NewEncoder(n, shape, 1)
	var wire []byte
	encNS := timeLoop(budget, 1, func() { wire = enc.Encode(src) })
	wire = append([]byte(nil), wire...) // the encoder owns its buffer
	dst := make([]float32, n)
	var derr error
	decNS := timeLoop(budget, 1, func() {
		if e := c.Decode(wire, n, shape, dst); e != nil {
			derr = e
		}
	})
	if derr != nil {
		return 0, 0, fmt.Errorf("%s decode: %w", name, derr)
	}
	mb := float64(4*n) / 1e6
	return mb / (encNS / 1e9), mb / (decNS / 1e9), nil
}

// planCost is what a workload's plan costs and loses over one full
// gradient set.
type planCost struct {
	encodeUS, decodeUS float64
	compressionRatio   float64 // raw / wire bytes, whole inventory
	relRMSE            float64 // ‖decode(encode(g)) − g‖ / ‖g‖, whole inventory
}

// measurePlan encodes and decodes every tensor under its assigned codec
// (one whole-tensor encoder each, fixed seed, so rel_rmse is exact).
func measurePlan(plan *quant.Plan, grads [][]float32, shapes []quant.Shape, budget time.Duration) (planCost, error) {
	type slot struct {
		c    quant.Codec
		enc  quant.Encoder
		wire []byte
		dst  []float32
	}
	slots := make([]slot, len(grads))
	for i, g := range grads {
		c := plan.CodecFor(i)
		slots[i] = slot{c: c, enc: c.NewEncoder(len(g), shapes[i], uint64(i)+1), dst: make([]float32, len(g))}
	}
	// The exact loss figure comes from the first round, before the
	// timing loops advance any stochastic or error-feedback state.
	var errSq, normSq float64
	for i, g := range grads {
		s := &slots[i]
		s.wire = append(s.wire[:0], s.enc.Encode(g)...)
		if err := s.c.Decode(s.wire, len(g), shapes[i], s.dst); err != nil {
			return planCost{}, fmt.Errorf("plan decode of tensor %d: %w", i, err)
		}
		for j, v := range g {
			d := float64(s.dst[j]) - float64(v)
			errSq += d * d
			normSq += float64(v) * float64(v)
		}
	}
	out := planCost{compressionRatio: float64(plan.RawBytes()) / float64(plan.WireBytes())}
	if normSq > 0 {
		out.relRMSE = math.Sqrt(errSq / normSq)
	}
	encNS := timeLoop(budget, 1, func() {
		for i, g := range grads {
			slots[i].enc.Encode(g)
		}
	})
	var derr error
	decNS := timeLoop(budget, 1, func() {
		for i, g := range grads {
			s := &slots[i]
			if e := s.c.Decode(s.wire, len(g), shapes[i], s.dst); e != nil {
				derr = e
			}
		}
	})
	if derr != nil {
		return planCost{}, derr
	}
	out.encodeUS, out.decodeUS = encNS/1e3, decNS/1e3
	return out, nil
}
