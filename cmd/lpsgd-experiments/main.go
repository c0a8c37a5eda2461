// Command lpsgd-experiments regenerates the paper's tables and figures.
//
//	lpsgd-experiments -fig setup     Figures 1–4 (datasets, machines, networks, batches)
//	lpsgd-experiments -fig 5         accuracy studies (real training; -full for longer runs)
//	lpsgd-experiments -fig 6|7|8|9   epoch-time panels
//	lpsgd-experiments -fig 10|11     samples/sec tables with paper comparison
//	lpsgd-experiments -fig 12..15    scalability panels
//	lpsgd-experiments -fig 16        cost/accuracy and the extrapolation sweep
//	lpsgd-experiments -fig claims    the §5 claims scoreboard vs the paper
//	lpsgd-experiments -fig grid      the full cross-product of all axes
//	lpsgd-experiments -fig all       everything
//
// Add -csv to emit comma-separated values instead of aligned text.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/comm"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/workload"
)

func main() {
	var (
		fig  = flag.String("fig", "all", "figure to regenerate: setup, 5..16, claims, all")
		csv  = flag.Bool("csv", false, "emit CSV instead of text tables")
		full = flag.Bool("full", false, "run the longer (non-quick) accuracy configuration")
	)
	flag.Parse()

	out := os.Stdout
	emit := func(tables ...*report.Table) {
		for _, t := range tables {
			if *csv {
				t.CSV(out)
			} else {
				t.Render(out)
			}
			fmt.Fprintln(out)
		}
	}

	run := func(name string, f func(io.Writer, func(...*report.Table), bool) error) {
		if *fig != "all" && *fig != name {
			return
		}
		fmt.Fprintf(out, "==== Figure %s ====\n", name)
		if err := f(out, emit, *full); err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("setup", figSetup)
	run("5", fig5)
	run("6", figEpoch(workload.EC2P2, comm.MPI, 8))
	run("7", figEpoch(workload.EC2P2, comm.NCCL, 8))
	run("8", figEpoch(workload.DGX1, comm.MPI, 8))
	run("9", figEpoch(workload.DGX1, comm.NCCL, 8))
	run("10", figThroughput(workload.EC2P2, comm.MPI))
	run("11", figThroughput(workload.EC2P2, comm.NCCL))
	run("12", figScalability(workload.EC2P2, comm.MPI))
	run("13", figScalability(workload.EC2P2, comm.NCCL))
	run("14", figScalability(workload.DGX1, comm.MPI))
	run("15", figScalability(workload.DGX1, comm.NCCL))
	run("16", fig16)
	run("claims", figClaims)
	run("grid", figGrid)
}

func figGrid(_ io.Writer, emit func(...*report.Table), _ bool) error {
	t, err := harness.GridTable()
	if err != nil {
		return err
	}
	emit(t)
	return nil
}

func figClaims(_ io.Writer, emit func(...*report.Table), _ bool) error {
	t, err := harness.ClaimsTable()
	if err != nil {
		return err
	}
	emit(t)
	return nil
}

func figSetup(_ io.Writer, emit func(...*report.Table), _ bool) error {
	ds := report.New("Figure 1: datasets", "name", "train", "val", "size_GB", "classes", "task")
	for _, d := range workload.Datasets {
		ds.Addf("%s\t%d\t%d\t%.3f\t%d\t%s", d.Name, d.TrainN, d.ValN, d.SizeGB, d.Classes, d.Task)
	}
	ms := report.New("Figure 2: machines", "name", "gpus", "gpu", "arch", "tflops", "$_per_hour")
	for _, m := range workload.Machines() {
		ms.Addf("%s\t%d\t%s\t%s\t%.2f\t%.1f",
			m.Name, m.MaxGPUs, m.GPU.Name, m.GPU.Arch, m.GPU.TFLOPS, m.PricePerHour)
	}
	ns := report.New("Figure 3: networks", "name", "dataset", "params_M", "epochs", "base_lr", "tensors")
	for _, n := range workload.Networks() {
		ns.Addf("%s\t%s\t%.2f\t%d\t%.2f\t%d",
			n.Name, n.Dataset, float64(n.Params())/1e6, n.Epochs, n.BaseLR, len(n.Tensors))
	}
	bs := report.New("Figure 4: global batch sizes", "network", "1GPU", "2GPU", "4GPU", "8GPU", "16GPU")
	for _, n := range workload.Networks() {
		row := []string{n.Name}
		for _, k := range workload.GPUCounts {
			if b, ok := n.BatchFor(k); ok {
				row = append(row, fmt.Sprintf("%d", b))
			} else {
				row = append(row, "NA")
			}
		}
		bs.Add(row...)
	}
	emit(ds, ms, ns, bs)
	return nil
}

func fig5(_ io.Writer, emit func(...*report.Table), full bool) error {
	opts := harness.AccuracyOptions{Epochs: 12}
	if full {
		opts = harness.AccuracyOptions{Epochs: 30, TrainN: 2048, TestN: 768}
	}
	img, err := harness.RunImageAccuracy(opts)
	if err != nil {
		return err
	}
	emit(img.Table(), img.CurvesTable(), img.ConvergenceTable(0.9))
	seqOpts := opts
	seq, err := harness.RunSequenceAccuracy(seqOpts)
	if err != nil {
		return err
	}
	emit(seq.Table(), seq.CurvesTable(), seq.ConvergenceTable(0.9), seq.LossTimeTable())
	return nil
}

func figEpoch(m workload.Machine, prim comm.Primitive, gpus int) func(io.Writer, func(...*report.Table), bool) error {
	return func(_ io.Writer, emit func(...*report.Table), _ bool) error {
		tables, err := harness.EpochTimeFigure(m, prim, gpus)
		if err != nil {
			return err
		}
		emit(tables...)
		return nil
	}
}

func figThroughput(m workload.Machine, prim comm.Primitive) func(io.Writer, func(...*report.Table), bool) error {
	return func(_ io.Writer, emit func(...*report.Table), _ bool) error {
		tables, err := harness.ThroughputFigure(m, prim)
		if err != nil {
			return err
		}
		emit(tables...)
		return nil
	}
}

func figScalability(m workload.Machine, prim comm.Primitive) func(io.Writer, func(...*report.Table), bool) error {
	return func(_ io.Writer, emit func(...*report.Table), _ bool) error {
		tables, err := harness.ScalabilityFigure(m, prim)
		if err != nil {
			return err
		}
		emit(tables...)
		return nil
	}
}

func fig16(_ io.Writer, emit func(...*report.Table), _ bool) error {
	left, err := harness.CostAccuracyTable()
	if err != nil {
		return err
	}
	right, err := harness.SpeedupSweepTable()
	if err != nil {
		return err
	}
	emit(left, right)
	return nil
}
