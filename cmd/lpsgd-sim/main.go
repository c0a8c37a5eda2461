// Command lpsgd-sim prices one training configuration with the
// calibrated performance model: which network, which machine, which
// communication primitive, which gradient precision, how many GPUs.
//
// Examples:
//
//	lpsgd-sim -network AlexNet -machine EC2-P2 -primitive MPI -precision qsgd4 -gpus 8
//	lpsgd-sim -network VGG19 -machine DGX-1 -primitive NCCL -gpus 8 -all-precisions
//	lpsgd-sim -network AlexNet -precision "qsgd4b512;fc6=topk0.01;minfrac=1" -gpus 8
//
// -precision accepts the full precision-policy grammar
// (quant.ParsePolicy), so mixed per-layer schemes price exactly like
// the single-codec rows.
//
// With -scenario, the command switches to cluster mode: it runs the
// named JSON scenario through the discrete-event simulator (package
// sim) and prints the session summary — step-time distribution,
// per-rank timelines, straggler attribution and rejoin-cost estimates.
// -seed overrides the scenario's seed, for exploring seed sensitivity
// without editing the file:
//
//	lpsgd-sim -scenario sim/testdata/mega_1024.json
//	lpsgd-sim -scenario cluster.json -seed 7
//
// Exit codes:
//
//	0  success
//	1  simulation failed at run time (unknown network, machine or
//	   precision, a GPU count the machine cannot host, ...)
//	2  usage error: bad flags (an unknown -primitive included), or the
//	   scenario file failed to load, decode or validate
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/comm"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/workload"
	"repro/quant"
	"repro/sim"
)

func main() {
	var (
		network   = flag.String("network", "AlexNet", "network: AlexNet, VGG19, BN-Inception, ResNet50, ResNet152, ResNet110, LSTM")
		machine   = flag.String("machine", "EC2-P2", "machine: EC2-P2 or DGX-1")
		primitive = flag.String("primitive", "MPI", "communication primitive: MPI or NCCL")
		precision = flag.String("precision", "32bit", "precision policy (quant.ParsePolicy grammar): 32bit, qsgd2/4/8/16, 1bit, 1bit*, or e.g. 'qsgd4b512;fc6=topk0.01'")
		gpus      = flag.Int("gpus", 8, "GPU count")
		batch     = flag.Int("batch", 0, "global batch override (0 = paper's Figure 4)")
		allPrec   = flag.Bool("all-precisions", false, "sweep the paper's precision ladder")
		scenario  = flag.String("scenario", "", "cluster mode: run this JSON scenario through the discrete-event simulator")
		seed      = flag.Uint64("seed", 0, "cluster mode: override the scenario's seed")
	)
	flag.Parse()

	if *scenario != "" {
		seedSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				seedSet = true
			}
		})
		os.Exit(runScenario(*scenario, *seed, seedSet))
	}

	prim, err := comm.ParsePrimitive(*primitive)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	net, err := workload.NetworkByName(*network)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m, err := workload.MachineByName(*machine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	labels := []string{*precision}
	if *allPrec {
		labels = harness.Ladder(prim)
	}

	t := report.New(
		fmt.Sprintf("%s on %s, %s, %d GPUs", net.Name, m.Name, prim, *gpus),
		"precision", "samples/s", "iter_ms", "compute_ms", "quant_ms", "comm_ms",
		"epoch_h", "wire_MB", "ratio_vs_raw")
	for _, label := range labels {
		policy, err := quant.ParsePolicy(label)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r, err := sim.Run(sim.Config{
			Network: net, Machine: m, Primitive: prim, Policy: policy,
			GPUs: *gpus, BatchOverride: *batch,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t.Addf("%s\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%.1f\t%.2f",
			label, r.SamplesPerSec, 1e3*r.IterSec, 1e3*r.ComputeSec,
			1e3*r.QuantSec, 1e3*r.CommSec, r.EpochHours(),
			float64(r.WireBytes)/1e6, float64(r.RawBytes)/float64(r.WireBytes))
	}
	t.Render(os.Stdout)
}

// runScenario is cluster mode; it returns the process exit code.
func runScenario(path string, seed uint64, seedSet bool) int {
	sc, err := sim.LoadScenario(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if seedSet {
		sc.Seed = seed
	}
	res, err := sim.RunScenario(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ms := func(ns int64) string { return fmt.Sprintf("%.3f", float64(ns)/1e6) }

	sum := report.New(fmt.Sprintf("scenario %s — %d ranks, seed %d", res.Name, res.Ranks, res.Seed),
		"steps", "events", "makespan_s", "exchange_MB/step", "session_GB", "trace")
	sum.Addf("%d\t%d\t%.3f\t%.1f\t%.2f\t%s",
		res.StepsCompleted, res.Events, float64(res.MakespanNS)/1e9,
		float64(res.ExchangeBytesPerStep)/1e6, float64(res.TotalExchangeBytes)/1e9,
		res.TraceHash)
	if res.AbortedAtStep != 0 {
		sum.Note("session ABORTED at step %d (non-rejoin failure)", res.AbortedAtStep)
	}
	sum.Render(os.Stdout)
	fmt.Println()

	dist := report.New("step time distribution (ms)",
		"min", "p50", "p90", "p99", "max", "mean")
	dist.Addf("%s\t%s\t%s\t%s\t%s\t%s",
		ms(res.StepNS.MinNS), ms(res.StepNS.P50NS), ms(res.StepNS.P90NS),
		ms(res.StepNS.P99NS), ms(res.StepNS.MaxNS), ms(res.StepNS.MeanNS))
	dist.Render(os.Stdout)
	fmt.Println()

	if len(res.TopStragglers) > 0 {
		strag := report.New("straggler attribution", "rank", "gated_steps", "factor")
		for _, g := range res.TopStragglers {
			strag.Addf("%d\t%d\t%.3f", g.Rank, g.GatedSteps, float64(g.FactorMilli)/1000)
		}
		if res.SlowestRank >= 0 {
			strag.Note("slowest rank: %d (the live counterpart is EpochStats.SlowestRank)", res.SlowestRank)
		}
		strag.Render(os.Stdout)
		fmt.Println()
	}

	for _, rj := range res.Rejoins {
		rt := report.New(fmt.Sprintf("rejoin: rank %d died in step %d", rj.Rank, rj.Step),
			"detect_ms", "rendezvous_ms", "transfer_ms", "snapshot_MB", "total_ms")
		rt.Addf("%s\t%s\t%s\t%.1f\t%s",
			ms(rj.DetectNS), ms(rj.RendezvousNS), ms(rj.TransferNS),
			float64(rj.SnapshotBytes)/1e6, ms(rj.TotalNS))
		rt.Render(os.Stdout)
		fmt.Println()
	}

	if len(res.PerRank) > 0 {
		pr := report.New("per-rank timeline (ms)",
			"rank", "compute", "quant", "comm", "blocked", "gated_steps")
		for _, r := range res.PerRank {
			pr.Addf("%d\t%s\t%s\t%s\t%s\t%d",
				r.Rank, ms(r.ComputeNS), ms(r.QuantNS), ms(r.CommNS), ms(r.BlockedNS), r.GatedSteps)
		}
		pr.Render(os.Stdout)
	}
	return 0
}
