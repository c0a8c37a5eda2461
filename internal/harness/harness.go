// Package harness assembles the reproduction's experiments: one runner
// per table and figure of the paper, each emitting a report.Table that
// mirrors the original's rows and, where the paper published numbers,
// a side-by-side comparison.
//
// Figure index
//
//	Fig 5 (a–e)   RunImageAccuracy / RunSequenceAccuracy — real training
//	Fig 6–9       EpochTimeTable — simulated epoch hours per codec
//	Fig 10–11     ThroughputTable — simulated vs paper samples/sec
//	Fig 12–15     ScalabilityTable — speedup vs 1 GPU
//	Fig 16 left   CostAccuracyTable — dollars to published accuracy
//	Fig 16 right  SpeedupSweepTable — speedup vs MB/GFLOPS
package harness

import (
	"fmt"

	"repro/comm"
	"repro/internal/workload"
	"repro/quant"
	"repro/sim"
)

// PrecisionLabels is the paper's precision ladder in presentation order
// (Figures 6–10 column order).
var PrecisionLabels = []string{"32bit", "qsgd16", "qsgd8", "qsgd4", "qsgd2", "1bit*", "1bit"}

// NCCLPrecisionLabels is the ladder for NCCL figures (no 1-bit rows:
// the paper's simulated low-precision NCCL carried QSGD only).
var NCCLPrecisionLabels = []string{"32bit", "qsgd16", "qsgd8", "qsgd4", "qsgd2"}

// Ladder returns the precision ladder a primitive's figures sweep.
func Ladder(prim comm.Primitive) []string {
	if prim == comm.NCCL {
		return NCCLPrecisionLabels
	}
	return PrecisionLabels
}

// CodecByLabel maps a paper row label to its codec via quant.Parse,
// which fills in the paper's tuned bucket sizes (§4.4) when the label
// omits them ("qsgd4" → bucket 512, "1bit*" → bucket 64).
func CodecByLabel(label string) (quant.Codec, error) {
	c, err := quant.Parse(label)
	if err != nil {
		return nil, fmt.Errorf("harness: unknown precision label %q: %w", label, err)
	}
	return c, nil
}

// mustCodec panics on unknown labels (used with the static ladders).
func mustCodec(label string) quant.Codec {
	c, err := CodecByLabel(label)
	if err != nil {
		panic(err)
	}
	return c
}

// simRun wraps sim.Run for a (net, machine, prim, label, gpus)
// tuple.
func simRun(net workload.Network, m workload.Machine, prim comm.Primitive,
	label string, gpus int) (sim.Result, error) {
	c, err := CodecByLabel(label)
	if err != nil {
		return sim.Result{}, err
	}
	return sim.Run(sim.Config{
		Network: net, Machine: m, Primitive: prim, Policy: quant.NewPolicy(c), GPUs: gpus,
	})
}
