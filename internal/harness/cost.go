package harness

import (
	"fmt"
	"math"

	"repro/comm"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/quant"
	"repro/sim"
)

// CostAccuracyRow is one point of Figure 16 (left): a network, the
// cheapest EC2 configuration that trains it to its published accuracy,
// and the resulting dollar cost.
type CostAccuracyRow struct {
	Network       string
	Top1          float64
	Instance      string
	GPUs          int
	Precision     string
	TrainHours    float64
	CostDollars   float64
	SamplesPerSec float64
}

// CheapestTraining searches EC2 configurations (instance × GPU count ×
// precision, NCCL when available as the paper recommends) for the one
// minimising the dollar cost of the network's published recipe.
func CheapestTraining(net workload.Network) (CostAccuracyRow, error) {
	best := CostAccuracyRow{CostDollars: math.Inf(1)}
	for _, inst := range workload.EC2Instances {
		for _, gpus := range []int{1, 2, 4, 8, 16} {
			if gpus > inst.GPUs {
				continue
			}
			if _, ok := net.BatchFor(gpus); !ok {
				continue
			}
			for _, label := range []string{"32bit", "qsgd8"} {
				prim := comm.NCCL
				if !workload.EC2P2.SupportsNCCL(gpus) {
					prim = comm.MPI
				}
				r, err := simRun(net, workload.EC2P2, prim, label, gpus)
				if err != nil {
					return CostAccuracyRow{}, err
				}
				hours := r.EpochSec * float64(net.Epochs) / 3600
				cost := hours * inst.PricePerHour
				if cost < best.CostDollars {
					best = CostAccuracyRow{
						Network:       net.Name,
						Top1:          net.PublishedTop1,
						Instance:      inst.Name,
						GPUs:          gpus,
						Precision:     label,
						TrainHours:    hours,
						CostDollars:   cost,
						SamplesPerSec: r.SamplesPerSec,
					}
				}
			}
		}
	}
	if math.IsInf(best.CostDollars, 1) {
		return best, fmt.Errorf("harness: no feasible configuration for %s", net.Name)
	}
	return best, nil
}

// CostAccuracyTable regenerates Figure 16 (left): price and accuracy of
// training each ImageNet network to its published recipe on the
// cheapest EC2 configuration.
func CostAccuracyTable() (*report.Table, error) {
	t := report.New("Figure 16 (left): accuracy vs training cost on EC2",
		"network", "top1_%", "instance", "gpus", "precision", "hours", "cost_$")
	for _, net := range []workload.Network{workload.AlexNet, workload.ResNet50, workload.ResNet152} {
		row, err := CheapestTraining(net)
		if err != nil {
			return nil, err
		}
		t.Addf("%s\t%.1f\t%s\t%d\t%s\t%.0f\t%.0f",
			row.Network, row.Top1, row.Instance, row.GPUs, row.Precision,
			row.TrainHours, row.CostDollars)
	}
	t.Note("paper: diminishing returns — the second accuracy jump costs far more than the first")
	return t, nil
}

// SpeedupSweepRow is one point of Figure 16 (right).
type SpeedupSweepRow struct {
	ExtraParams int64
	MBPerGFLOP  float64
	Speedup     float64
}

// SpeedupSweep regenerates Figure 16 (right): the speedup of 8-bit over
// 32-bit NCCL at 8 GPUs as AlexNet's model size is artificially grown
// with dummy parameters.
func SpeedupSweep() ([]SpeedupSweepRow, error) {
	extras := []int64{0, 62e6, 250e6, 1e9, 4e9, 16e9, 64e9}
	var out []SpeedupSweepRow
	for _, extra := range extras {
		net := sim.WithDummyParams(workload.AlexNet, extra)
		fp, err := sim.Run(sim.Config{Network: net, Machine: workload.EC2P2,
			Primitive: comm.NCCL, GPUs: 8})
		if err != nil {
			return nil, err
		}
		q8, err := sim.Run(sim.Config{Network: net, Machine: workload.EC2P2,
			Primitive: comm.NCCL, Policy: quant.NewPolicy(quant.NewQSGD(8, 512, quant.MaxNorm)), GPUs: 8})
		if err != nil {
			return nil, err
		}
		out = append(out, SpeedupSweepRow{
			ExtraParams: extra,
			MBPerGFLOP:  net.MBPerGFLOP(),
			Speedup:     q8.SamplesPerSec / fp.SamplesPerSec,
		})
	}
	return out, nil
}

// SpeedupSweepTable renders SpeedupSweep as a table.
func SpeedupSweepTable() (*report.Table, error) {
	rows, err := SpeedupSweep()
	if err != nil {
		return nil, err
	}
	t := report.New("Figure 16 (right): 8-bit vs 32-bit speedup as model size grows (NCCL, 8 GPUs)",
		"extra_params", "MB_per_GFLOP", "speedup")
	for _, r := range rows {
		t.Addf("%d\t%.1f\t%.2f", r.ExtraParams, r.MBPerGFLOP, r.Speedup)
	}
	t.Note("upper bound is the 4x bandwidth ratio; the curve saturates near 2x because quantisation kernels scale with the model too")
	return t, nil
}
