package parallel

import (
	"math"
	"strings"
	"testing"

	"repro/comm"
	"repro/data"
	"repro/nn"
	"repro/quant"
	"repro/rng"
)

// buildMLP is a small but non-trivial model used across the engine tests.
func buildMLP(dim, classes int) func(r *rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		return nn.MustNetwork(
			nn.NewDense("d1", dim, 32, r),
			nn.NewReLU("r1"),
			nn.NewDense("d2", 32, 32, r),
			nn.NewReLU("r2"),
			nn.NewDense("d3", 32, classes, r),
		)
	}
}

func blobData(t *testing.T) (*data.Dataset, *data.Dataset) {
	t.Helper()
	train, test := data.MakeImages(data.ImageConfig{
		Classes: 4, Channels: 1, H: 6, W: 6,
		TrainN: 512, TestN: 256, Noise: 0.7, Seed: 99,
	})
	return train, test
}

func runConfig(t *testing.T, cfg Config) *History {
	t.Helper()
	train, test := blobData(t)
	cfg.BatchSize = 64
	cfg.Epochs = 8
	cfg.Schedule = nn.ConstantLR(0.08)
	cfg.Momentum = 0.9
	cfg.Seed = 5
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := tr.Run(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.ReplicasInSync() {
		t.Fatalf("replicas diverged (policy=%v, prim=%v)", cfg.Policy, cfg.Primitive)
	}
	return h
}

func TestFullPrecisionLearns(t *testing.T) {
	h := runConfig(t, Config{Workers: 4})
	if h.FinalAccuracy < 0.9 {
		t.Fatalf("fp32 accuracy %v < 0.9", h.FinalAccuracy)
	}
}

// TestQuantisedMatchesFullPrecision: under either primitive — the
// direct schedule or the ring re-quantising its partial sums — every
// codec lands within 5 points of that primitive's full-precision run.
func TestQuantisedMatchesFullPrecision(t *testing.T) {
	for _, prim := range []comm.Primitive{comm.MPI, comm.NCCL} {
		t.Run(prim.String(), func(t *testing.T) {
			base := runConfig(t, Config{Workers: 4, Primitive: prim})
			for _, c := range []quant.Codec{
				quant.NewOneBitReshaped(64),
				quant.NewQSGD(4, 512, quant.MaxNorm),
				quant.NewQSGD(8, 512, quant.MaxNorm),
			} {
				h := runConfig(t, Config{Workers: 4, Primitive: prim, Policy: quant.NewPolicy(c)})
				t.Logf("%s: accuracy %.4f, 32bit %.4f", c.Name(), h.FinalAccuracy, base.FinalAccuracy)
				if h.FinalAccuracy < base.FinalAccuracy-0.05 {
					t.Errorf("%s accuracy %v vs fp32 %v — more than 5 points behind",
						c.Name(), h.FinalAccuracy, base.FinalAccuracy)
				}
			}
		})
	}
}

func TestClassicOneBitTrains(t *testing.T) {
	h := runConfig(t, Config{Workers: 2, Policy: quant.NewPolicy(quant.OneBit{})})
	if h.FinalAccuracy < 0.8 {
		t.Fatalf("classic 1bit accuracy %v", h.FinalAccuracy)
	}
}

// TestNCCLQuantisedMatchesRingPrediction: a quantised NCCL run moves
// exactly the quantised ring's bytes per step — comm.WireBytes for the
// trainer's plan, over the in-process fabric and framed TCP — and its
// replicas stay bit-identical.
func TestNCCLQuantisedMatchesRingPrediction(t *testing.T) {
	train, test := blobData(t)
	for _, policy := range []string{"qsgd4b512", "1bit*64", "qsgd4b512;minfrac=1;d1=qsgd8b512;*.b=32bit"} {
		for _, useTCP := range []bool{false, true} {
			tr, err := NewTrainer(buildMLP(36, 4), Config{
				Workers: 3, BatchSize: 64, Epochs: 2, Seed: 5, Momentum: 0.9,
				Schedule: nn.ConstantLR(0.05), Policy: quant.MustParsePolicy(policy),
				Primitive: comm.NCCL, UseTCP: useTCP,
			})
			if err != nil {
				t.Fatal(err)
			}
			h, err := tr.Run(train, test)
			tr.Close()
			if err != nil {
				t.Fatal(err)
			}
			if !tr.ReplicasInSync() {
				t.Errorf("%s tcp=%v: replicas diverged", policy, useTCP)
			}
			steps := int64(2 * 512 / 64)
			if want := steps * comm.WireBytes(comm.NCCL, tr.specs, 3, useTCP); h.TotalWireBytes != want {
				t.Errorf("%s tcp=%v: moved %d bytes, the quantised ring predicts %d", policy, useTCP, h.TotalWireBytes, want)
			}
		}
	}
}

func TestNCCLFullPrecisionUsesRing(t *testing.T) {
	cfg := Config{Workers: 2, Primitive: comm.NCCL, BatchSize: 8, Epochs: 1,
		Schedule: nn.ConstantLR(0.01), Seed: 1}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Reducer().Name() != "nccl-ring" {
		t.Fatalf("expected ring, got %s", tr.Reducer().Name())
	}
}

func TestQuantisedMovesFewerBytes(t *testing.T) {
	fp := runConfig(t, Config{Workers: 4})
	q4 := runConfig(t, Config{Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm))})
	if q4.TotalWireBytes >= fp.TotalWireBytes {
		t.Fatalf("4-bit moved %d bytes, fp32 moved %d", q4.TotalWireBytes, fp.TotalWireBytes)
	}
	ratio := float64(fp.TotalWireBytes) / float64(q4.TotalWireBytes)
	if ratio < 4 {
		t.Fatalf("4-bit wire reduction only %.2f×", ratio)
	}
}

func TestSingleWorker(t *testing.T) {
	h := runConfig(t, Config{Workers: 1})
	if h.FinalAccuracy < 0.9 {
		t.Fatalf("1-worker accuracy %v", h.FinalAccuracy)
	}
	if h.TotalWireBytes != 0 {
		t.Fatalf("1-worker run moved %d bytes", h.TotalWireBytes)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runConfig(t, Config{Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm))})
	b := runConfig(t, Config{Workers: 4, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm))})
	if a.FinalAccuracy != b.FinalAccuracy {
		t.Fatalf("accuracy differs across identical runs: %v vs %v",
			a.FinalAccuracy, b.FinalAccuracy)
	}
	for i := range a.Epochs {
		if math.Abs(a.Epochs[i].TrainLoss-b.Epochs[i].TrainLoss) > 0 {
			t.Fatalf("epoch %d loss differs", i)
		}
	}
}

func TestEpochsToReach(t *testing.T) {
	h := &History{Epochs: []EpochStats{
		{Epoch: 0, TestAccuracy: 0.3},
		{Epoch: 1, TestAccuracy: 0.6},
		{Epoch: 2, TestAccuracy: 0.8},
	}}
	if got := h.EpochsToReach(0.55); got != 2 {
		t.Fatalf("EpochsToReach(0.55) = %d, want 2", got)
	}
	if got := h.EpochsToReach(0.99); got != -1 {
		t.Fatalf("EpochsToReach(0.99) = %d, want -1", got)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Workers: 0, BatchSize: 8, Epochs: 1},
		{Workers: 16, BatchSize: 8, Epochs: 1},
		{Workers: 2, BatchSize: 8, Epochs: 0},
	}
	for i, cfg := range bad {
		if _, err := NewTrainer(buildMLP(4, 2), cfg); err == nil {
			t.Errorf("case %d: expected config error", i)
		}
	}
}

func TestPlanExposed(t *testing.T) {
	cfg := Config{Workers: 2, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		BatchSize: 8, Epochs: 1, Seed: 1}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f := tr.Plan().QuantisedFraction(); f < 0.99 {
		t.Fatalf("plan quantises only %v of parameters", f)
	}
}

func TestHistoryRecordsWireGrowth(t *testing.T) {
	h := runConfig(t, Config{Workers: 2, Policy: quant.NewPolicy(quant.NewQSGD(8, 512, quant.MaxNorm))})
	var prev int64 = -1
	for _, e := range h.Epochs {
		if e.WireBytes < prev {
			t.Fatal("cumulative wire bytes decreased")
		}
		prev = e.WireBytes
	}
	if prev != h.TotalWireBytes {
		t.Fatal("final epoch bytes != total")
	}
}

func TestTop5AtLeastTop1(t *testing.T) {
	h := runConfig(t, Config{Workers: 2, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm))})
	for _, e := range h.Epochs {
		if e.TestAccuracy < 0 {
			continue
		}
		if e.TestTop5 < e.TestAccuracy {
			t.Fatalf("epoch %d: top5 %v < top1 %v", e.Epoch, e.TestTop5, e.TestAccuracy)
		}
		if e.TestTop5 > 1 {
			t.Fatalf("epoch %d: top5 %v > 1", e.Epoch, e.TestTop5)
		}
	}
}

func TestEvaluateKsSinglePassConsistency(t *testing.T) {
	train, test := blobData(t)
	cfg := Config{Workers: 1, BatchSize: 16, Epochs: 1,
		Schedule: nn.ConstantLR(0.05), Seed: 4}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(train, test); err != nil {
		t.Fatal(err)
	}
	top1 := tr.Evaluate(test)
	ks := tr.EvaluateKs(test, 1, 2, 4)
	if ks[0] != top1 {
		t.Fatalf("EvaluateKs top1 %v != Evaluate %v", ks[0], top1)
	}
	if !(ks[0] <= ks[1] && ks[1] <= ks[2]) {
		t.Fatalf("top-k not monotone: %v", ks)
	}
	// With 4 classes, top-4 accuracy must be exactly 1.
	if ks[2] != 1 {
		t.Fatalf("top-4 of 4 classes = %v, want 1", ks[2])
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	train, test := blobData(t)
	norm := func(wd float32) float64 {
		cfg := Config{Workers: 2, BatchSize: 64, Epochs: 4,
			Schedule: nn.ConstantLR(0.05), Momentum: 0.9,
			WeightDecay: wd, Seed: 5}
		tr, err := NewTrainer(buildMLP(36, 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(train, test); err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, p := range tr.Model().Params() {
			total += p.Value.Norm2() * p.Value.Norm2()
		}
		return total
	}
	plain := norm(0)
	decayed := norm(0.01)
	if decayed >= plain {
		t.Fatalf("weight decay did not shrink weights: %v vs %v", decayed, plain)
	}
}

func TestTrainingOverTCPFabric(t *testing.T) {
	// The same quantised run over real sockets must produce bit-identical
	// results to the channel fabric (the aggregation is deterministic and
	// transport-independent). The byte volumes differ only by the
	// self-describing frame headers the TCP path adds: payload bytes are
	// identical, and the per-message overhead is the frame header size.
	overChan := runConfig(t, Config{Workers: 2, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm))})
	overTCP := runConfig(t, Config{Workers: 2, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), UseTCP: true})
	if overChan.FinalAccuracy != overTCP.FinalAccuracy {
		t.Fatalf("transport changed results: %v vs %v",
			overChan.FinalAccuracy, overTCP.FinalAccuracy)
	}
	overhead := overTCP.TotalWireBytes - overChan.TotalWireBytes
	if overhead <= 0 {
		t.Fatalf("framed TCP volume %d not above headerless channel volume %d",
			overTCP.TotalWireBytes, overChan.TotalWireBytes)
	}
}

// TestNCCLClassicOneBitTrains: classic 1bitSGD *expands* tensors with
// tiny wire rows (12 bytes per 2-value column vs 8 raw); the ring
// carries it like any codec and the run learns.
func TestNCCLClassicOneBitTrains(t *testing.T) {
	h := runConfig(t, Config{Workers: 2, Policy: quant.NewPolicy(quant.OneBit{}), Primitive: comm.NCCL})
	if h.FinalAccuracy < 0.8 {
		t.Fatalf("classic 1bit accuracy under NCCL %v", h.FinalAccuracy)
	}
}

func TestClipNormKeepsReplicasInSync(t *testing.T) {
	h := runConfig(t, Config{Workers: 3, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		ClipNorm: 0.5})
	if h.FinalAccuracy < 0.7 {
		t.Fatalf("clipped training accuracy %v", h.FinalAccuracy)
	}
}

// TestExplicitPolicyRuleClaimsLayer: a policy's layer-prefix rule
// carries that layer's tensors under its own codec.
func TestExplicitPolicyRuleClaimsLayer(t *testing.T) {
	tr, err := NewTrainer(buildMLP(36, 4), Config{
		Workers: 2, BatchSize: 8, Epochs: 1,
		Policy: quant.MustParsePolicy("qsgd8b512;d3=32bit"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if got := tr.Policy().Name(); got != "qsgd8b512;d3=32bit" {
		t.Fatalf("effective policy %q, want qsgd8b512;d3=32bit", got)
	}
	// The d3 rule claims both d3.W and d3.b (layer-prefix match);
	// everything else follows the base with the default exemption.
	plan := tr.Plan()
	infos := buildMLP(36, 4)(rng.New(1)).TensorInfos()
	for i, ti := range infos {
		if !strings.HasPrefix(ti.Name, "d3.") {
			continue
		}
		if got := plan.CodecFor(i).Name(); got != "32bit" {
			t.Errorf("tensor %s carried by %s, want the d3 rule's 32bit", ti.Name, got)
		}
	}
}

// TestMixedPolicyTrainingStaysInSync: real training under a per-layer
// policy over both primitives' framed/in-process paths keeps replicas
// bit-identical.
func TestMixedPolicyTrainingStaysInSync(t *testing.T) {
	h := runConfig(t, Config{Workers: 3,
		Policy: quant.MustParsePolicy("qsgd4b512;minfrac=1;d1=qsgd8b512;*.b=32bit")})
	if h.FinalAccuracy < 0.7 {
		t.Fatalf("mixed-policy training accuracy %v", h.FinalAccuracy)
	}
}

// TestMixedPolicyTrainingOverTCPStaysInSync: the same mixed policy with
// every message a self-describing frame over loopback TCP.
func TestMixedPolicyTrainingOverTCPStaysInSync(t *testing.T) {
	h := runConfig(t, Config{Workers: 2, UseTCP: true,
		Policy: quant.MustParsePolicy("qsgd4b512;minfrac=1;d1=qsgd8b512;*.b=32bit")})
	if h.FinalAccuracy < 0.7 {
		t.Fatalf("mixed-policy TCP training accuracy %v", h.FinalAccuracy)
	}
}

// TestConfigDoesNotMutateCallerPolicy: filling defaults must copy the
// policy, not write through the caller's pointer — one policy value may
// configure several trainers (possibly concurrently).
func TestConfigDoesNotMutateCallerPolicy(t *testing.T) {
	p := &quant.Policy{Base: nil, MinFrac: 0} // both fields defaulted
	tr, err := NewTrainer(buildMLP(36, 4), Config{
		Workers: 2, BatchSize: 8, Epochs: 1, Policy: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if p.Base != nil || p.MinFrac != 0 {
		t.Fatalf("NewTrainer mutated the caller's policy: %+v", p)
	}
	if got := tr.Policy().Name(); got != "32bit" {
		t.Fatalf("effective policy %q, want the defaulted 32bit", got)
	}
}

// unnameableCodec wraps a real codec under a name the quant grammar
// cannot spell — legal for in-process training, where names never
// cross a wire (the lpsgd facade and cluster rendezvous reject it at
// their boundaries instead).
type unnameableCodec struct{ quant.Codec }

func (unnameableCodec) Name() string { return "my-experimental-codec" }

// TestCustomCodecTrainsInProcess: the engine must keep accepting
// custom codecs whose names do not round-trip through quant.Parse, as
// it did before policies existed.
func TestCustomCodecTrainsInProcess(t *testing.T) {
	h := runConfig(t, Config{Workers: 2,
		Policy: quant.NewPolicy(unnameableCodec{quant.NewQSGD(8, 512, quant.MaxNorm)})})
	if h.FinalAccuracy < 0.7 {
		t.Fatalf("custom-codec training accuracy %v", h.FinalAccuracy)
	}
}
