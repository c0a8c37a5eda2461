package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// tracedRun is phase (d): everything behind the per-layer metrics.
//
//  1. The untraced jobs of every sub-seed — the same run --trace 0 makes,
//     so each layer figure is taken next to the end-to-end figure it is
//     meant to explain, in one process.
//  2. The same jobs with the program's tracer and registry attached
//     (obs.*), alternating with 1 so drift hits both sides alike.
//  3. The single-worker baseline (parallel.speedup_vs_k1).
//  4. The layer replay with benchmark-owned spans, and the kernel
//     measurements on the gradients it produced.
type tracedResult struct {
	untraced *e2eResult
	traced   *e2eResult
	k1       *e2eResult
	metrics  *metricSet
	trace    string // path of the written span file
	failures []string
	warnings []string
}

// sideBudget bounds the traced and K=1 phases: each runs whole jobs
// until this much wall time is used (at least one job). kernelBudget is
// the measuring time of one kernel row. Variables only so the package
// test can run the whole traced pass in a fraction of a second.
var (
	sideBudget   = 4 * time.Second
	kernelBudget = 60 * time.Millisecond
)

func runTraced(w *workload, seed uint64, outDir string, logf func(string, ...any)) *tracedResult {
	tr := &tracedResult{metrics: newMetricSet(perLayer)}
	fail := func(format string, a ...any) {
		tr.failures = append(tr.failures, fmt.Sprintf(format, a...))
	}

	// Phases 1 and 2, interleaved: U0 T0 T1 U1 U2 T2 … until the traced
	// side has used its budget, then the remaining untraced sub-seeds.
	un := newE2ERun(w, seed, trainerOpts{}, logf)
	tc := newE2ERun(w, seed, trainerOpts{traced: true}, logf)
	var tracedWall time.Duration
	runTracedJob := func(i int) bool {
		t0 := time.Now()
		ok := tc.runOne(i, false)
		tracedWall += time.Since(t0)
		return ok
	}
	for i := 0; i < w.subSeeds; i++ {
		// Alternate which side goes first, so slow drift of the machine
		// cancels out of the traced/untraced ratio.
		traced := i == 0 || tracedWall < sideBudget
		ok := true
		if traced && i%2 == 1 {
			ok = runTracedJob(i)
		}
		ok = ok && un.runOne(i, true)
		if traced && i%2 == 0 {
			ok = ok && runTracedJob(i)
		}
		if !ok {
			break
		}
	}
	tr.untraced, tr.traced = un.result(), tc.result()

	// Phase 3: the single-worker baseline of the same global batch.
	k1 := newE2ERun(w, seed, trainerOpts{workers: 1}, logf)
	for i, t0 := 0, time.Now(); i == 0 || (time.Since(t0) < sideBudget && i < w.subSeeds); i++ {
		if !k1.runOne(i, false) {
			break
		}
	}
	tr.k1 = k1.result()
	for _, r := range []*e2eResult{tr.untraced, tr.traced, tr.k1} {
		tr.failures = append(tr.failures, r.failures...)
		tr.warnings = append(tr.warnings, r.warnings...)
	}
	u, t := tr.untraced, tr.traced
	if u.nWindows == 0 || t.nWindows == 0 || tr.k1.nWindows == 0 {
		return tr
	}

	ms := tr.metrics
	ms.set("parallel.step_ms_p95", u.stepMsP95)
	ms.set("parallel.alloc_bytes_per_step", u.allocBytesPerStep)
	ms.set("parallel.gc_cycles_per_1k_steps", u.gcPer1k)
	ms.set("parallel.gc_pause_ms_per_1k_steps", u.gcPauseMsPer1k)
	ms.set("parallel.steps_to_target", u.stepsToTarget)
	ms.set("parallel.speedup_vs_k1", pairedStepRatio(k1, un))
	var save, load []float64
	for _, j := range un.bySub {
		if j != nil {
			save = append(save, float64(j.saveState)/1e6)
			load = append(load, float64(j.loadState)/1e6)
			ms.set("elastic.snapshot_bytes", float64(j.snapshotBytes))
		}
	}
	ms.set("elastic.save_state_ms", median(save))
	ms.set("elastic.load_state_ms", median(load))

	// obs.*: the traced jobs against the untraced ones, and the
	// program's own phase spans of rank 0 over the traced windows.
	var phases phaseTotals
	for _, j := range tc.bySub {
		if j != nil {
			phases.add(j.phases)
		}
	}
	ms.set("obs.trace_overhead_permille", (pairedStepRatio(tc, un)-1)*1000)
	tracedSteps := float64(t.jobs * w.jobSteps())
	ms.set("obs.spans_per_step", float64(phases.recorded)/tracedSteps)
	for _, ph := range obsPhases {
		ms.set("obs.phase_permille."+ph, phases.byPhase[ph]/t.windowNS*1000)
	}
	ms.set("obs.coverage_permille", (phases.byPhase["compute"]+phases.byPhase["barrier"])/t.windowNS*1000)
	if phases.recorded > int64(t.jobs)*traceRing {
		tr.warnings = append(tr.warnings, "obs: the tracer ring overflowed; phase shares are undercounted")
	}
	computeMS, exchangeMS := median(phases.computeMS), median(phases.barrierMS)
	ms.set("parallel.compute_ms", computeMS)
	ms.set("parallel.exchange_ms", exchangeMS)
	// No overlap today: the whole exchange is exposed.
	ms.set("parallel.unhidden_exchange_share", exchangeMS/median(t.windowMs))

	// Phase 4: the replay and the kernels.
	rp, err := replay(w, subSeed(w, seed, 0), w.warm*w.windowSteps(), replaySteps(w))
	if err != nil {
		fail("layer replay: %v", err)
		return tr
	}
	if logf != nil {
		rp.report(logf)
	}
	if path, err := rp.log.writeJSONL(outDir); err != nil {
		fail("writing the trace: %v", err)
	} else {
		tr.trace = path
	}
	ms.set("data.gather_us", rp.gatherUS)
	ms.set("nn.forward_us", rp.forwardUS)
	ms.set("nn.backward_us", rp.backwardUS)
	ms.set("nn.optimizer_us", rp.optimizerUS)
	ms.set("nn.allocs_per_fwdbwd", rp.allocsPerFwdBwd)
	replayCompute := rp.gatherUS + rp.forwardUS + rp.backwardUS + rp.optimizerUS
	ms.set("parallel.engine_overhead_us", u.stepMsP50*1e3-replayCompute-rp.exchangeUS)
	gap := math.Abs(rp.stepMS-u.stepMsP50) / u.stepMsP50 * 1000
	ms.set("parallel.replay_gap_permille", gap)
	if gap > 250 {
		tr.warnings = append(tr.warnings, fmt.Sprintf(
			"replay gap %.0f permille: the replayed step (%.3f ms) is far from step_ms_p50 (%.3f ms); the layer numbers do not explain the end-to-end figure",
			gap, rp.stepMS, u.stepMsP50))
	}

	ms.set("tensor.matmul_gflops", matmulGFLOPS(w.matmul, kernelBudget))
	ms.set("tensor.im2col_us", im2colUS(kernelBudget))
	ms.set("parallel.eval_ms", evalMS(w, subSeed(w, seed, 0)))
	ms.set("parallel.peak_rss_mb", peakRSSMB())

	rep := newReplica(w, 1) // for its tensor inventory only
	if err := quantRows(w, rep, rp, ms); err != nil {
		fail("quant rows: %v", err)
	}
	if err := commRows(w, rep, rp, ms); err != nil {
		fail("comm rows: %v", err)
	}
	if miss := ms.missing(); len(miss) > 0 {
		fail("per-layer metrics not measured: %s", strings.Join(miss, ", "))
	}
	for name, v := range ms.values {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fail("per-layer metric %s is not finite", name)
		}
	}
	return tr
}

// pairedStepRatio compares two variants on the same work: for every
// sub-seed both ran, the ratio of a's quietest step time to b's — the
// jobs do identical arithmetic — and then the median of those ratios.
func pairedStepRatio(a, b *e2eRun) float64 {
	var ratios []float64
	for sub, ja := range a.bySub {
		jb := b.bySub[sub]
		if ja == nil || jb == nil {
			continue
		}
		pa, _ := quietest(stepMs(ja.windows, a.w.warm, a.w.windowSteps()))
		pb, _ := quietest(stepMs(jb.windows, b.w.warm, b.w.windowSteps()))
		ratios = append(ratios, pa/pb)
	}
	return median(ratios)
}

// replaySteps sizes the replay to about the timed part of one job.
func replaySteps(w *workload) int { return (w.windows - w.warm) * w.windowSteps() }

// quantRows measures the codec kernels on the largest gradient tensor
// and the workload's plan on the whole inventory.
func quantRows(w *workload, rep *replica, rp *replayResult, ms *metricSet) error {
	shapes := tensorShapes(rep.net)
	largest := 0
	for i, g := range rp.grads {
		if len(g) > len(rp.grads[largest]) {
			largest = i
		}
	}
	for _, c := range codecsMeasured {
		enc, dec, err := codecThroughput(c, rp.grads[largest], shapes[largest], kernelBudget)
		if err != nil {
			return err
		}
		ms.set("quant.encode_mbps."+c, enc)
		ms.set("quant.decode_mbps."+c, dec)
	}
	plan, err := planFor(w.policy, rep.net)
	if err != nil {
		return err
	}
	pc, err := measurePlan(plan, rp.grads, shapes, kernelBudget)
	if err != nil {
		return err
	}
	ms.set("quant.plan_encode_us", pc.encodeUS)
	ms.set("quant.plan_decode_us", pc.decodeUS)
	ms.set("quant.compression_ratio", pc.compressionRatio)
	ms.set("quant.rel_rmse", pc.relRMSE)
	return nil
}

// commRows measures the exchange alone: the workload's tensor inventory
// through both primitives over both fabrics, one bulk tensor, one tiny
// one, and the allocation cost of the workload's own configuration.
func commRows(w *workload, rep *replica, rp *replayResult, ms *metricSet) error {
	plan, err := planFor(w.policy, rep.net)
	if err != nil {
		return err
	}
	specs := tensorSpecs(rep.net, plan)
	k := w.workers
	for _, prim := range []primitiveKind{reduceBroadcast, ring} {
		for _, trk := range []transportKind{chanFabric, tcpFabric} {
			s, err := timeExchange(trk, prim, specs, k, 3, exchangeIters(rp), rp.grads)
			if err != nil {
				return fmt.Errorf("exchange %s/%s: %w", prim, trk, err)
			}
			ms.set("comm.exchange_us."+string(prim)+"."+string(trk), s.medianNS/1e3)
			if prim == w.primitive && trk == w.transport {
				ms.set("comm.exchange_allocs", s.allocs)
				ms.set("comm.exchange_alloc_bytes", s.allocBytes)
			}
		}
	}
	// One 32bit tensor of the model's total size: the bandwidth row.
	total := 0
	for _, g := range rp.grads {
		total += len(g)
	}
	bulk := make([]float32, 0, total)
	for _, g := range rp.grads {
		bulk = append(bulk, g...)
	}
	small := bulk[:64]
	for _, trk := range []transportKind{chanFabric, tcpFabric} {
		s, err := timeExchange(trk, reduceBroadcast, fp32Spec("bulk", total), k, 3, exchangeIters(rp), [][]float32{bulk})
		if err != nil {
			return fmt.Errorf("bulk exchange/%s: %w", trk, err)
		}
		ms.set("comm.bulk_mbps."+string(trk), float64(4*total)/1e6/(s.medianNS/1e9))
		s, err = timeExchange(trk, reduceBroadcast, fp32Spec("small", 64), k, 20, 400, [][]float32{small})
		if err != nil {
			return fmt.Errorf("small exchange/%s: %w", trk, err)
		}
		ms.set("comm.small_exchange_us."+string(trk), s.medianNS/1e3)
	}
	return nil
}

// exchangeIters sizes an exchange measurement to roughly 150 ms from the
// replayed exchange time, within sane limits.
func exchangeIters(rp *replayResult) int {
	n := int(150e3 / math.Max(rp.exchangeUS, 1))
	return min(max(n, 20), 400)
}

// peakRSSMB is the process's high-water resident set (Linux VmHWM).
// Elsewhere it is NaN, which fails the run loudly rather than reporting
// a made-up figure.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
