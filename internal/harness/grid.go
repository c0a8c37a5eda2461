package harness

import (
	"fmt"

	"repro/comm"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/sim"
)

// GridRow is one configuration of the study's full cross-product (the
// paper's §1 axes: machine × primitive × network × precision × GPU
// count).
type GridRow struct {
	Machine   string
	Primitive string
	Network   string
	Precision string
	GPUs      int
	Result    sim.Result
}

// FullGrid prices every feasible configuration of the study's axes —
// the complete trade-off space the paper's 1400 machine-hours explored,
// regenerated in milliseconds by the cost model.
func FullGrid() ([]GridRow, error) {
	var rows []GridRow
	for _, m := range workload.Machines() {
		for _, prim := range []comm.Primitive{comm.MPI, comm.NCCL} {
			for _, net := range workload.Networks() {
				for _, label := range Ladder(prim) {
					for _, gpus := range workload.GPUCounts {
						if gpus > m.MaxGPUs {
							continue
						}
						if prim == comm.NCCL && !m.SupportsNCCL(gpus) {
							continue
						}
						if _, ok := net.BatchFor(gpus); !ok {
							continue
						}
						if gpus == 1 && label != "32bit" {
							continue // single GPU never quantises
						}
						r, err := simRun(net, m, prim, label, gpus)
						if err != nil {
							return nil, fmt.Errorf("harness: grid %s/%s/%s/%s/%d: %w",
								m.Name, prim, net.Name, label, gpus, err)
						}
						rows = append(rows, GridRow{
							Machine:   m.Name,
							Primitive: prim.String(),
							Network:   net.Name,
							Precision: label,
							GPUs:      gpus,
							Result:    r,
						})
					}
				}
			}
		}
	}
	return rows, nil
}

// GridTable renders the full grid as one flat table (CSV-friendly: the
// dataset behind every figure at once).
func GridTable() (*report.Table, error) {
	rows, err := FullGrid()
	if err != nil {
		return nil, err
	}
	t := report.New("Full study grid: every (machine, primitive, network, precision, GPUs) configuration",
		"machine", "primitive", "network", "precision", "gpus",
		"samples_per_sec", "iter_ms", "compute_ms", "quant_ms", "comm_ms",
		"epoch_hours", "wire_MB")
	for _, r := range rows {
		t.Addf("%s\t%s\t%s\t%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.3f\t%.1f",
			r.Machine, r.Primitive, r.Network, r.Precision, r.GPUs,
			r.Result.SamplesPerSec, 1e3*r.Result.IterSec,
			1e3*r.Result.ComputeSec, 1e3*r.Result.QuantSec, 1e3*r.Result.CommSec,
			r.Result.EpochHours(), float64(r.Result.WireBytes)/1e6)
	}
	t.Note("%d configurations", len(rows))
	return t, nil
}

// BestConfiguration returns the grid row with the highest throughput
// for a network on a machine — "what should I run?" answered by the
// model.
func BestConfiguration(network, machine string) (GridRow, error) {
	rows, err := FullGrid()
	if err != nil {
		return GridRow{}, err
	}
	var best GridRow
	found := false
	for _, r := range rows {
		if r.Network != network || r.Machine != machine {
			continue
		}
		if !found || r.Result.SamplesPerSec > best.Result.SamplesPerSec {
			best = r
			found = true
		}
	}
	if !found {
		return GridRow{}, fmt.Errorf("harness: no grid rows for %s on %s", network, machine)
	}
	return best, nil
}
