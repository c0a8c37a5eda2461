package main

import (
	"math"
	"time"

	"repro/data"
	"repro/lpsgd"
	"repro/nn"
	"repro/obs"
	"repro/rng"
)

// Adapter for the engine (package parallel, reached only through the
// lpsgd facade): every end-to-end run goes through newTrainer → Run →
// the Trainer accessors below, and nothing else.

// facadeMLP is the facade's own MLP builder — the model of the mlp pair.
func facadeMLP(widths ...int) func(r *rng.RNG) *nn.Network { return lpsgd.MLP(widths...) }

// trainerOpts are the per-run knobs a phase varies; everything else is
// frozen in the workload.
type trainerOpts struct {
	workers int  // 0 = the workload's K
	traced  bool // attach the program's tracer and metrics registry
}

// newTrainer builds the facade trainer of a workload. Building includes
// the TCP mesh for the tcp workloads, which is why set-up times it.
func newTrainer(w *workload, seed uint64, k int, tracer *obs.Tracer, metrics *obs.Registry) (*lpsgd.Trainer, error) {
	transport := lpsgd.InProcess
	if w.transport == tcpFabric {
		transport = lpsgd.TCP
	}
	primitive := lpsgd.MPI
	if w.primitive == ring {
		primitive = lpsgd.NCCL
	}
	opts := []lpsgd.Option{
		lpsgd.WithPolicy(w.policy),
		lpsgd.WithWorkers(k),
		lpsgd.WithTransport(transport),
		lpsgd.WithPrimitive(primitive),
		lpsgd.WithBatchSize(w.batch),
		lpsgd.WithEpochs(w.windows),
		lpsgd.WithLearningRate(w.lr),
		lpsgd.WithSeed(seed),
		lpsgd.WithEvalEvery(1),
	}
	if tracer != nil {
		opts = append(opts, lpsgd.WithTracer(tracer))
	}
	if metrics != nil {
		opts = append(opts, lpsgd.WithMetrics(metrics))
	}
	return lpsgd.NewTrainer(buildModel(w), opts...)
}

// window is one epoch of a Run as the benchmark sees it.
type window struct {
	elapsed  time.Duration // training only; evaluation excluded by the engine
	loss     float64
	accuracy float64
}

// runTrainer executes one Run and flattens its History.
func runTrainer(t *lpsgd.Trainer, train, test *data.Dataset) ([]window, float64, error) {
	h, err := t.Run(train, test)
	if err != nil {
		return nil, 0, err
	}
	ws := make([]window, len(h.Epochs))
	for i, e := range h.Epochs {
		ws[i] = window{elapsed: e.Elapsed, loss: e.TrainLoss, accuracy: e.TestAccuracy}
	}
	return ws, h.FinalAccuracy, nil
}

// evalMS times Trainer.Evaluate on the workload's test set: the cost
// Run pays per window outside EpochStats.Elapsed.
func evalMS(w *workload, seed uint64) float64 {
	_, test := makeData(w, seed)
	t, err := newTrainer(w, seed, w.workers, nil, nil)
	if err != nil {
		return math.NaN()
	}
	defer t.Close()
	t.Evaluate(test)
	var ms []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		t.Evaluate(test)
		ms = append(ms, float64(time.Since(t0))/1e6)
	}
	return median(ms)
}
