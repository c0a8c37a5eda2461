package harness

import (
	"fmt"

	"repro/comm"
	"repro/internal/report"
	"repro/internal/workload"
)

// Claim is one of the paper's §5 quantitative claims evaluated against
// this reproduction.
type Claim struct {
	Name  string
	Ours  float64
	Paper float64
	// Holds reports whether the reproduced value supports the claim
	// qualitatively.
	Holds bool
}

// paperRatio divides two cells of an embedded table, returning 0 when
// either is missing.
func paperRatio(table []workload.PaperRow, net, precA, precB string, gpus int) float64 {
	a, okA := workload.PaperThroughput(table, net, precA, gpus)
	b, okB := workload.PaperThroughput(table, net, precB, gpus)
	if !okA || !okB || b == 0 {
		return 0
	}
	return a / b
}

// simRatio divides simulated throughputs of two precisions.
func simRatio(net workload.Network, m workload.Machine, prim comm.Primitive,
	precA, precB string, gpus int) (float64, error) {
	a, err := simRun(net, m, prim, precA, gpus)
	if err != nil {
		return 0, err
	}
	b, err := simRun(net, m, prim, precB, gpus)
	if err != nil {
		return 0, err
	}
	return a.SamplesPerSec / b.SamplesPerSec, nil
}

// Claims evaluates the paper's headline §5 findings with the simulator
// and pairs each with the value implied by the paper's own tables.
func Claims() ([]Claim, error) {
	var out []Claim
	add := func(name string, ours, paper float64, holds bool) {
		out = append(out, Claim{Name: name, Ours: ours, Paper: paper, Holds: holds})
	}

	// 1. MPI + 4-bit speeds up AlexNet ~3.5× at 8 GPUs.
	r, err := simRatio(workload.AlexNet, workload.EC2P2, comm.MPI, "qsgd4", "32bit", 8)
	if err != nil {
		return nil, err
	}
	add("AlexNet MPI@8: QSGD-4bit speedup over 32bit",
		r, paperRatio(workload.PaperFig10MPI, "AlexNet", "qsgd4", "32bit", 8), r > 2.5)

	// 2. 32-bit NCCL beats 4-bit MPI on AlexNet at 8 GPUs.
	nccl32, err := simRun(workload.AlexNet, workload.EC2P2, comm.NCCL, "32bit", 8)
	if err != nil {
		return nil, err
	}
	mpi4, err := simRun(workload.AlexNet, workload.EC2P2, comm.MPI, "qsgd4", 8)
	if err != nil {
		return nil, err
	}
	p32, _ := workload.PaperThroughput(workload.PaperFig11NCCL, "AlexNet", "32bit", 8)
	p4, _ := workload.PaperThroughput(workload.PaperFig10MPI, "AlexNet", "qsgd4", 8)
	add("AlexNet@8: NCCL-32bit / MPI-4bit",
		nccl32.SamplesPerSec/mpi4.SamplesPerSec, p32/p4,
		nccl32.SamplesPerSec > mpi4.SamplesPerSec)

	// 3. NCCL quantisation gains are small; VGG19 benefits most.
	r, err = simRatio(workload.VGG19, workload.EC2P2, comm.NCCL, "qsgd4", "32bit", 8)
	if err != nil {
		return nil, err
	}
	add("VGG19 NCCL@8: QSGD-4bit speedup",
		r, paperRatio(workload.PaperFig11NCCL, "VGG19", "qsgd4", "32bit", 8),
		r > 1.02 && r < 1.6)
	r, err = simRatio(workload.ResNet50, workload.EC2P2, comm.NCCL, "qsgd4", "32bit", 8)
	if err != nil {
		return nil, err
	}
	add("ResNet50 NCCL@8: QSGD-4bit speedup (should be ~1)",
		r, paperRatio(workload.PaperFig11NCCL, "ResNet50", "qsgd4", "32bit", 8),
		r < 1.25)

	// 4. Classic 1bitSGD is slower than full precision on ResNets.
	r, err = simRatio(workload.ResNet50, workload.EC2P2, comm.MPI, "1bit", "32bit", 8)
	if err != nil {
		return nil, err
	}
	add("ResNet50 MPI@8: classic-1bit / 32bit (<1 = artefact reproduced)",
		r, paperRatio(workload.PaperFig10MPI, "ResNet50", "1bit", "32bit", 8), r < 1)

	// 5. Reshaping fixes it (up to ~4×).
	r, err = simRatio(workload.ResNet152, workload.EC2P2, comm.MPI, "1bit*", "1bit", 8)
	if err != nil {
		return nil, err
	}
	add("ResNet152 MPI@8: reshaped / classic 1bit",
		r, paperRatio(workload.PaperFig10MPI, "ResNet152", "1bit*", "1bit", 8), r > 2)

	// 6. Diminishing returns below 4 bits.
	r, err = simRatio(workload.AlexNet, workload.EC2P2, comm.MPI, "qsgd2", "qsgd4", 8)
	if err != nil {
		return nil, err
	}
	add("AlexNet MPI@8: 2bit / 4bit (diminishing returns)",
		r, paperRatio(workload.PaperFig10MPI, "AlexNet", "qsgd2", "qsgd4", 8), r < 1.3)

	// 7. 16 GPUs rarely pay off: AlexNet fp32 slows down 8→16.
	r16, err := simRun(workload.AlexNet, workload.EC2P2, comm.MPI, "32bit", 16)
	if err != nil {
		return nil, err
	}
	r8, err := simRun(workload.AlexNet, workload.EC2P2, comm.MPI, "32bit", 8)
	if err != nil {
		return nil, err
	}
	p16, _ := workload.PaperThroughput(workload.PaperFig10MPI, "AlexNet", "32bit", 16)
	p8, _ := workload.PaperThroughput(workload.PaperFig10MPI, "AlexNet", "32bit", 8)
	add("AlexNet MPI: 16GPU / 8GPU throughput (<1 = not worth 2x price)",
		r16.SamplesPerSec/r8.SamplesPerSec, p16/p8, r16.SamplesPerSec < r8.SamplesPerSec)

	// 8. Extrapolation: 8-bit speedup approaches ~2× as MB/GFLOPS grows.
	rows, err := SpeedupSweep()
	if err != nil {
		return nil, err
	}
	last := rows[len(rows)-1].Speedup
	add("Fig16R: asymptotic 8bit NCCL speedup (bounded by 4)", last, 2.0, last > 1.4 && last <= 4)

	return out, nil
}

// ClaimsTable renders Claims as a table.
func ClaimsTable() (*report.Table, error) {
	claims, err := Claims()
	if err != nil {
		return nil, err
	}
	t := report.New("Paper claims vs this reproduction", "claim", "ours", "paper", "holds")
	for _, c := range claims {
		paper := "-"
		if c.Paper > 0 {
			paper = fmt.Sprintf("%.2f", c.Paper)
		}
		t.Addf("%s\t%.2f\t%s\t%v", c.Name, c.Ours, paper, c.Holds)
	}
	return t, nil
}
