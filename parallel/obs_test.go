package parallel

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/data"
	"repro/nn"
	"repro/obs"
	"repro/quant"
)

// obsRun executes one small quantised training run with the given
// observability planes attached and returns the checkpoint bytes (the
// digest), the trainer, and the history.
func obsRun(t *testing.T, tracer *obs.Tracer, metrics *obs.Registry, useTCP bool) ([]byte, *Trainer, *History) {
	t.Helper()
	train, test := blobData(t)
	cfg := Config{
		Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		BatchSize: 64, Epochs: 2,
		Schedule: nn.ConstantLR(0.08), Momentum: 0.9, Seed: 5,
		UseTCP:  useTCP,
		Tracer:  tracer,
		Metrics: metrics,
	}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ReplicasInSync() {
		t.Fatal("replicas diverged")
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr, h
}

// TestObsDisabledDigestParity is the tentpole inertness contract, in
// the mould of the PR 4 health-plane suite: the tracer and registry
// must not move a single training bit. Three identical runs — no
// observability config at all, an explicitly-nil tracer, and a fully
// enabled tracer+registry — must produce bit-identical checkpoints.
func TestObsDisabledDigestParity(t *testing.T) {
	baseline, _, _ := obsRun(t, nil, nil, false)
	nilExplicit, _, _ := obsRun(t, nil, nil, false)
	if !bytes.Equal(baseline, nilExplicit) {
		t.Fatal("identical configs produced different checkpoints — run is nondeterministic; parity test is void")
	}

	tracer := obs.NewTracer(4096)
	reg := obs.NewRegistry()
	enabled, tr, _ := obsRun(t, tracer, reg, false)

	// The enabled planes must have actually observed the run...
	if tracer.Recorded() == 0 {
		t.Fatal("enabled tracer recorded no spans")
	}
	seen := map[obs.Phase]bool{}
	for _, s := range tracer.Snapshot() {
		seen[s.Phase] = true
	}
	for _, want := range []obs.Phase{obs.PhaseCompute, obs.PhaseBarrier, obs.PhaseQuantise, obs.PhaseTransfer} {
		if !seen[want] {
			t.Errorf("no %v span recorded; phases seen: %v", want, seen)
		}
	}
	var expo bytes.Buffer
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	text := expo.String()
	for _, m := range []string{"lpsgd_steps_total", "lpsgd_wire_tx_bytes_total", "lpsgd_world_size", "lpsgd_phase_ns_bucket"} {
		if !strings.Contains(text, m) {
			t.Errorf("metric %s missing from exposition", m)
		}
	}
	if tr.WireBytes() == 0 {
		t.Error("WireBytes accessor reports zero after a quantised run")
	}

	// ...and still not have perturbed the trajectory by one bit.
	if !bytes.Equal(baseline, enabled) {
		t.Fatal("enabled tracer+registry perturbed the training trajectory: checkpoints differ from baseline")
	}
}

// TestObsTCPByteParity pins byte-level inertness over real sockets:
// tracing a TCP run changes neither the payload volume the fabric
// accounts nor the result. Span bytes are observations, not traffic.
func TestObsTCPByteParity(t *testing.T) {
	plainCkpt, plainTr, _ := obsRun(t, nil, nil, true)
	tracer := obs.NewTracer(4096)
	tracedCkpt, tracedTr, _ := obsRun(t, tracer, obs.NewRegistry(), true)

	if plainTr.WireBytes() != tracedTr.WireBytes() {
		t.Fatalf("tracer changed the wire volume: %d bytes untraced vs %d traced",
			plainTr.WireBytes(), tracedTr.WireBytes())
	}
	if !bytes.Equal(plainCkpt, tracedCkpt) {
		t.Fatal("tracer perturbed the TCP training trajectory")
	}
	// Per-peer tx sums are the same counters the totals are derived
	// from; cross-check one rank's ledger against the aggregate.
	var sum int64
	for p := 0; p < 4; p++ {
		sum += tracedTr.peerTraffic(p).TxBytes
	}
	if sum != tracedTr.WireBytes() {
		t.Fatalf("per-peer tx sum %d != WireBytes %d", sum, tracedTr.WireBytes())
	}
}

// TestStepStatsRaceHammer reads every metric-facing accessor from
// concurrent goroutines for the whole duration of a training run.
// Under -race this proves StepStats snapshots, the wire/control byte
// accessors and the phi probes are safe against the step loop and the
// elastic fabric swap by construction.
func TestStepStatsRaceHammer(t *testing.T) {
	train, test := blobData(t)
	cfg := Config{
		Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		BatchSize: 64, Epochs: 2,
		Schedule: nn.ConstantLR(0.08), Momentum: 0.9, Seed: 5,
		Tracer: obs.NewTracer(1024), Metrics: obs.NewRegistry(),
	}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink int64 // goroutine-local; keeps the reads from being optimised out
			for {
				select {
				case <-done:
					_ = sink
					return
				default:
				}
				st := tr.StepStats()
				for _, d := range st.Compute {
					sink += int64(d)
				}
				sink += tr.WireBytes() + tr.ControlBytes() + int64(st.Slowest)
				sink += tr.peerTraffic(0).TxBytes + tr.monitorPhi(1)
			}
		}()
	}
	if _, err := tr.Run(train, test); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	st := tr.StepStats()
	if st.Slowest < 0 || len(st.Compute) != 4 {
		t.Fatalf("final StepStats incomplete: %+v", st)
	}
	// The snapshot is immutable: mutating a returned slice must not
	// leak into the next reader's copy.
	st.Compute[0] = -1
	if tr.StepStats().Compute[0] == -1 {
		t.Fatal("StepStats returned a shared slice — snapshot is not defensive")
	}
}

// benchData mirrors blobData for benchmarks (no *testing.T at hand).
func benchData() *data.Dataset {
	train, _ := data.MakeImages(data.ImageConfig{
		Classes: 4, Channels: 1, H: 6, W: 6,
		TrainN: 512, TestN: 256, Noise: 0.7, Seed: 99,
	})
	return train
}

// benchStepTrainer builds a 4-worker quantised trainer over fixed data
// for per-step benchmarking.
func benchStepTrainer(b *testing.B, tracer *obs.Tracer, metrics *obs.Registry) (*Trainer, []int, *data.Dataset) {
	b.Helper()
	train := benchData()
	cfg := Config{
		Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		BatchSize: 64, Epochs: 1,
		Schedule: nn.ConstantLR(0.08), Momentum: 0.9, Seed: 5,
		Tracer: tracer, Metrics: metrics,
	}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		b.Fatal(err)
	}
	batch := make([]int, cfg.BatchSize)
	for i := range batch {
		batch[i] = i % train.Len()
	}
	return tr, batch, train
}

// BenchmarkStepUntraced and BenchmarkStepTraced bound the acceptance
// criterion that full tracing (ring tracer + metrics registry +
// phase-histogram bridge) costs at most ~2% of step time. Compare:
//
//	go test ./parallel -bench 'BenchmarkStep(Traced|Untraced)' -benchtime 1000x
func BenchmarkStepUntraced(b *testing.B) {
	tr, batch, train := benchStepTrainer(b, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.runStep(train, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepTraced(b *testing.B) {
	tracer := obs.NewTracer(4096)
	reg := obs.NewRegistry()
	tr, batch, train := benchStepTrainer(b, tracer, reg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.runStep(train, batch); err != nil {
			b.Fatal(err)
		}
	}
}
