package parallel

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/data"
	"repro/health"
	"repro/nn"
	"repro/obs"
	"repro/quant"
	"repro/rng"
)

// teleRun mirrors obsRun with the convergence-telemetry sampler on.
func teleRun(t *testing.T, every int, metrics *obs.Registry, useTCP bool) ([]byte, *Trainer) {
	t.Helper()
	train, test := blobData(t)
	cfg := Config{
		Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		BatchSize: 64, Epochs: 2,
		Schedule: nn.ConstantLR(0.08), Momentum: 0.9, Seed: 5,
		UseTCP:         useTCP,
		Metrics:        metrics,
		TelemetryEvery: every,
	}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(train, test); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr
}

// TestTelemetryDigestParity extends the PR 9 inertness contract to the
// telemetry plane: sampling loss, gradient norms and live quantisation
// error on every single step must not move one training bit relative
// to a run with telemetry off.
func TestTelemetryDigestParity(t *testing.T) {
	baseline, _, _ := obsRun(t, nil, nil, false)
	reg := obs.NewRegistry()
	enabled, _ := teleRun(t, 1, reg, false)

	// The sampler must have actually run...
	var expo bytes.Buffer
	if err := reg.WriteText(&expo); err != nil {
		t.Fatal(err)
	}
	text := expo.String()
	for _, m := range []string{
		"lpsgd_telemetry_step ",
		"lpsgd_telemetry_loss_micro ",
		`lpsgd_telemetry_grad_l2_micro{tensor="`,
		`lpsgd_telemetry_quant_rmse_nano{tensor="`,
		`lpsgd_telemetry_compression_milli{tensor="`,
	} {
		if !strings.Contains(text, m) {
			t.Errorf("telemetry series %q missing from exposition:\n%s", m, text)
		}
	}
	if strings.Contains(text, "lpsgd_telemetry_step 0\n") {
		t.Error("telemetry step gauge never advanced")
	}

	// ...and still not have perturbed the trajectory by one bit.
	if !bytes.Equal(baseline, enabled) {
		t.Fatal("telemetry sampling perturbed the training trajectory: checkpoints differ")
	}
}

// TestTelemetryTCPByteParity pins the data-plane half of the
// invariant over real sockets: per-step telemetry changes neither the
// fabric's payload volume nor the result. (The control-plane half —
// snapshots counted under ControlBytes only — is asserted by the
// cluster e2e, where a monitor exists.)
func TestTelemetryTCPByteParity(t *testing.T) {
	plainCkpt, plainTr, _ := obsRun(t, nil, nil, true)
	teleCkpt, teleTr := teleRun(t, 1, obs.NewRegistry(), true)

	if plainTr.WireBytes() != teleTr.WireBytes() {
		t.Fatalf("telemetry changed the data-mesh volume: %d bytes off vs %d on",
			plainTr.WireBytes(), teleTr.WireBytes())
	}
	if !bytes.Equal(plainCkpt, teleCkpt) {
		t.Fatal("telemetry perturbed the TCP training trajectory")
	}
}

// TestTelemetryEveryValidation: a negative cadence is a config error.
func TestTelemetryEveryValidation(t *testing.T) {
	cfg := Config{
		Workers: 2, BatchSize: 8, Epochs: 1,
		TelemetryEvery: -1,
	}
	if _, err := NewTrainer(buildMLP(36, 4), cfg); err == nil {
		t.Fatal("TelemetryEvery=-1 accepted")
	}
}

// TestTelemetryRejectsUnwireableTensorNames: a tensor name past the
// telemetry wire bound fails NewTrainer up front when snapshots would
// cross the control plane, instead of failing every sample later.
func TestTelemetryRejectsUnwireableTensorNames(t *testing.T) {
	a, b := pairedConns(t)
	defer b.Close()
	mon, err := health.NewMonitor(0, 2, []net.Conn{nil, a}, health.Config{
		Interval: 20 * time.Millisecond, Timeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	layer := strings.Repeat("d", 254) // tensor "ddd…d.W" is 256 bytes
	build := func(r *rng.RNG) *nn.Network {
		return nn.MustNetwork(nn.NewDense(layer, 36, 4, r))
	}
	_, err = NewTrainer(build, Config{
		Workers: 2, BatchSize: 8, Epochs: 1,
		Monitor: mon, TelemetryEvery: 1,
	})
	if !errors.Is(err, health.ErrTelemetryBounds) {
		t.Fatalf("NewTrainer returned %v, want health.ErrTelemetryBounds", err)
	}
}

// BenchmarkStepTelemetryOff and BenchmarkStepTelemetryOn bound the
// telemetry sampler's amortised cost at the default cadence (every 25
// steps) against the same 2% bar as tracing. Compare:
//
//	go test ./parallel -bench 'BenchmarkStepTelemetry(Off|On)' -benchtime 1000x
func BenchmarkStepTelemetryOff(b *testing.B) {
	tr, batch, train := benchStepTrainer(b, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.runStep(train, batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepTelemetryOn(b *testing.B) {
	tr, batch, train := benchTelemetryTrainer(b, 25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.runStep(train, batch); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTelemetryTrainer mirrors benchStepTrainer with the telemetry
// sampler on at the given cadence.
func benchTelemetryTrainer(b *testing.B, every int) (*Trainer, []int, *data.Dataset) {
	b.Helper()
	train := benchData()
	cfg := Config{
		Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		BatchSize: 64, Epochs: 1,
		Schedule: nn.ConstantLR(0.08), Momentum: 0.9, Seed: 5,
		Metrics:        obs.NewRegistry(),
		TelemetryEvery: every,
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
