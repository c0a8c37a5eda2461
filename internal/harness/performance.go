package harness

import (
	"fmt"

	"repro/comm"
	"repro/internal/report"
	"repro/internal/workload"
)

// EpochTimeTable regenerates one panel of Figures 6–9: time per epoch
// (hours) for one network across the precision ladder at a fixed GPU
// count, split into computation (including quantisation kernels) and
// communication exactly as the paper's stacked bars are.
func EpochTimeTable(net workload.Network, m workload.Machine,
	prim comm.Primitive, gpus int) (*report.Table, error) {
	labels := Ladder(prim)
	t := report.New(
		fmt.Sprintf("%s - %s, %d GPUs (%s): time per epoch", net.Name, prim, gpus, m.Name),
		"precision", "epoch_hours", "compute_hours", "comm_hours", "samples/sec")
	for _, label := range labels {
		r, err := simRun(net, m, prim, label, gpus)
		if err != nil {
			return nil, err
		}
		iters := r.EpochSec / r.IterSec
		t.Addf("%s\t%.3f\t%.3f\t%.3f\t%.1f",
			label, r.EpochHours(),
			(r.ComputeSec+r.QuantSec)*iters/3600,
			r.CommSec*iters/3600,
			r.SamplesPerSec)
	}
	return t, nil
}

// EpochTimeFigure regenerates a whole figure (all panels) for the given
// machine/primitive/GPU count: Figure 6 is (EC2, MPI, 8), Figure 7
// (EC2, NCCL, 8), Figures 8–9 the DGX-1 versions.
func EpochTimeFigure(m workload.Machine, prim comm.Primitive, gpus int) ([]*report.Table, error) {
	nets := []workload.Network{
		workload.AlexNet, workload.VGG19, workload.ResNet152,
		workload.ResNet50, workload.BNInception,
	}
	var out []*report.Table
	for _, net := range nets {
		t, err := EpochTimeTable(net, m, prim, gpus)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ThroughputTable regenerates one network's block of Figure 10 (MPI) or
// Figure 11 (NCCL): samples/second across GPU counts and precisions,
// with the paper's measured value and the simulated/paper ratio beside
// every reported cell.
func ThroughputTable(net workload.Network, m workload.Machine,
	prim comm.Primitive) (*report.Table, error) {
	paperTable := workload.PaperFig10MPI
	if prim == comm.NCCL {
		paperTable = workload.PaperFig11NCCL
	}
	labels := Ladder(prim)
	t := report.New(
		fmt.Sprintf("%s - samples/second (%s, %s)", net.Name, prim, m.Name),
		"precision", "gpus", "simulated", "paper", "ratio")
	for _, label := range labels {
		for _, gpus := range workload.GPUCounts {
			if gpus == 1 && label != "32bit" {
				continue // "/" cells in the paper
			}
			if prim == comm.NCCL && !m.SupportsNCCL(gpus) {
				continue
			}
			if _, ok := net.BatchFor(gpus); !ok {
				continue
			}
			r, err := simRun(net, m, prim, label, gpus)
			if err != nil {
				return nil, err
			}
			paper, ok := workload.PaperThroughput(paperTable, net.Name, paperLabel(label), gpus)
			if ok {
				t.Addf("%s\t%d\t%.1f\t%.1f\t%.2f", label, gpus, r.SamplesPerSec, paper, r.SamplesPerSec/paper)
			} else {
				t.Addf("%s\t%d\t%.1f\t-\t-", label, gpus, r.SamplesPerSec)
			}
		}
	}
	return t, nil
}

// paperLabel converts a harness label to the embedded tables' key.
func paperLabel(label string) string { return label }

// ThroughputFigure regenerates Figure 10 or 11 in full.
func ThroughputFigure(m workload.Machine, prim comm.Primitive) ([]*report.Table, error) {
	var out []*report.Table
	for _, net := range workload.PerformanceNetworks() {
		if prim == comm.NCCL && net.Name == "ResNet110" {
			continue // Figure 11 omits the CIFAR model
		}
		t, err := ThroughputTable(net, m, prim)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// ScalabilityTable regenerates one panel of Figures 12–15: throughput
// relative to the 1-GPU full-precision run, per precision and GPU
// count.
func ScalabilityTable(net workload.Network, m workload.Machine,
	prim comm.Primitive) (*report.Table, error) {
	labels := Ladder(prim)
	base, err := simRun(net, m, comm.MPI, "32bit", 1)
	if err != nil {
		return nil, err
	}
	t := report.New(
		fmt.Sprintf("%s - scalability (%s, %s)", net.Name, prim, m.Name),
		append([]string{"precision"}, gpuHeaders(m, prim)...)...)
	for _, label := range labels {
		row := []string{label}
		for _, gpus := range workload.GPUCounts {
			if gpus > m.MaxGPUs || (prim == comm.NCCL && !m.SupportsNCCL(gpus)) {
				continue
			}
			if _, ok := net.BatchFor(gpus); !ok {
				row = append(row, "-")
				continue
			}
			r, err := simRun(net, m, prim, label, gpus)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", r.SamplesPerSec/base.SamplesPerSec))
		}
		t.Add(row...)
	}
	return t, nil
}

func gpuHeaders(m workload.Machine, prim comm.Primitive) []string {
	var hs []string
	for _, gpus := range workload.GPUCounts {
		if gpus > m.MaxGPUs || (prim == comm.NCCL && !m.SupportsNCCL(gpus)) {
			continue
		}
		hs = append(hs, fmt.Sprintf("%dGPU", gpus))
	}
	return hs
}

// ScalabilityFigure regenerates Figure 12, 13, 14 or 15 (selected by
// machine and primitive).
func ScalabilityFigure(m workload.Machine, prim comm.Primitive) ([]*report.Table, error) {
	var out []*report.Table
	for _, net := range workload.PerformanceNetworks() {
		if net.Name == "ResNet110" {
			continue // the scalability figures show the ImageNet five
		}
		t, err := ScalabilityTable(net, m, prim)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
