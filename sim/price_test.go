package sim

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/comm"
	"repro/internal/workload"
	"repro/quant"
)

func mustRun(t *testing.T, cfg Config) Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// codecByPrecision maps the paper's row labels to codecs with the
// paper's tuned buckets.
func codecByPrecision(t *testing.T, prec string, bucket int) quant.Codec {
	t.Helper()
	switch prec {
	case "32bit":
		return quant.FP32{}
	case "1bit":
		return quant.OneBit{}
	case "1bit*":
		return quant.NewOneBitReshaped(bucket)
	case "qsgd2":
		return quant.NewQSGD(2, bucket, quant.MaxNorm)
	case "qsgd4":
		return quant.NewQSGD(4, bucket, quant.MaxNorm)
	case "qsgd8":
		return quant.NewQSGD(8, bucket, quant.MaxNorm)
	case "qsgd16":
		return quant.NewQSGD(16, bucket, quant.MaxNorm)
	}
	t.Fatalf("unknown precision %q", prec)
	return nil
}

func TestSingleGPUMatchesCalibration(t *testing.T) {
	for _, net := range workload.PerformanceNetworks() {
		r := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 1})
		if math.Abs(r.SamplesPerSec-net.ThroughputK80)/net.ThroughputK80 > 1e-6 {
			t.Errorf("%s 1-GPU: %v samples/s, anchor %v", net.Name, r.SamplesPerSec, net.ThroughputK80)
		}
		if r.CommSec != 0 || r.QuantSec != 0 {
			t.Errorf("%s 1-GPU must have zero comm/quant time", net.Name)
		}
	}
}

// TestCalibrationAgainstFigure10: across every reported cell of the
// paper's MPI table, the simulated throughput must stay within 2× and
// the median ratio within 10% of 1 — we reproduce shape, not seconds.
func TestCalibrationAgainstFigure10(t *testing.T) {
	var ratios []float64
	for _, row := range workload.PaperFig10MPI {
		net, err := workload.NetworkByName(row.Network)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range workload.GPUCounts {
			paper := row.Samples[i]
			if paper == 0 {
				continue
			}
			if row.Network == "VGG19" && row.Precision == "qsgd16" && k == 8 {
				// The paper's own outlier: 35.8 samples/s at 8 GPUs is
				// below its 4-GPU value (46.4) and below every other
				// quantised 8-GPU VGG cell — a measurement artefact no
				// monotone cost model can reproduce.
				continue
			}
			r := mustRun(t, Config{Network: net, Machine: workload.EC2P2,
				Primitive: comm.MPI, Policy: quant.NewPolicy(codecByPrecision(t, row.Precision, row.Bucket)), GPUs: k})
			ratio := r.SamplesPerSec / paper
			ratios = append(ratios, ratio)
			if ratio < 0.5 || ratio > 2.1 {
				t.Errorf("%s %s @%d: ratio %.2f outside [0.5, 2.1]",
					row.Network, row.Precision, k, ratio)
			}
		}
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if median < 0.9 || median > 1.1 {
		t.Errorf("median calibration ratio %.3f outside [0.9, 1.1]", median)
	}
}

// TestCalibrationAgainstFigure11 does the same for the NCCL table,
// excluding the paper's own outlier cell (VGG19 qsgd16 @8 reports 35.8,
// below its 4-GPU value — a measurement artefact).
func TestCalibrationAgainstFigure11(t *testing.T) {
	for _, row := range workload.PaperFig11NCCL {
		net, err := workload.NetworkByName(row.Network)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range workload.GPUCounts {
			paper := row.Samples[i]
			if paper == 0 {
				continue
			}
			r := mustRun(t, Config{Network: net, Machine: workload.EC2P2,
				Primitive: comm.NCCL, Policy: quant.NewPolicy(codecByPrecision(t, row.Precision, row.Bucket)), GPUs: k})
			if ratio := r.SamplesPerSec / paper; ratio < 0.5 || ratio > 2.0 {
				t.Errorf("%s %s @%d: NCCL ratio %.2f outside [0.5, 2.0]",
					row.Network, row.Precision, k, ratio)
			}
		}
	}
}

// --- The paper's headline claims (§5.2–§5.4, Outlook) ---

// Claim: with MPI, low precision helps a lot on communication-dominated
// networks — ~3.5× on AlexNet at 8 GPUs with 4-bit QSGD.
func TestClaimMPIQuantisationSpeedsUpAlexNet(t *testing.T) {
	fp := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
	q4 := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	speedup := q4.SamplesPerSec / fp.SamplesPerSec
	if speedup < 2.5 || speedup > 4.5 {
		t.Errorf("AlexNet MPI 4-bit speedup %.2f, paper shows ≈3.5", speedup)
	}
}

// Claim: quantisation slashes communication time ~5× (AlexNet, 4-bit).
func TestClaimCommunicationReduction(t *testing.T) {
	fp := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
	q4 := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	red := fp.CommSec / q4.CommSec
	if red < 4 || red > 9 {
		t.Errorf("communication reduction %.1f×, paper reports ≈5×", red)
	}
}

// Claim: on computation-dominated networks quantisation barely helps
// end-to-end (BN-Inception ≤ ~1.4× even at 16 GPUs with MPI).
func TestClaimComputationDominatedNetworksGainLittle(t *testing.T) {
	fp := mustRun(t, Config{Network: workload.BNInception, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
	q4 := mustRun(t, Config{Network: workload.BNInception, Machine: workload.EC2P2, Primitive: comm.MPI,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	if speedup := q4.SamplesPerSec / fp.SamplesPerSec; speedup > 1.5 {
		t.Errorf("BN-Inception MPI speedup %.2f, paper shows ≈1.3", speedup)
	}
}

// Claim (§5.2, "NCCL vs MPI"): full-precision NCCL beats even
// low-precision MPI on AlexNet at 8 GPUs.
func TestClaimNCCLFullPrecisionBeatsMPILowPrecision(t *testing.T) {
	nccl32 := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.NCCL, GPUs: 8})
	mpiQ4 := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	if nccl32.SamplesPerSec <= mpiQ4.SamplesPerSec {
		t.Errorf("NCCL 32-bit (%.0f) should beat MPI 4-bit (%.0f) on AlexNet@8",
			nccl32.SamplesPerSec, mpiQ4.SamplesPerSec)
	}
}

// Claim: with NCCL, quantisation gives at most modest speedups —
// noticeable only on VGG.
func TestClaimNCCLQuantisationGainsAreSmall(t *testing.T) {
	for _, net := range []workload.Network{workload.ResNet50, workload.ResNet152, workload.BNInception} {
		fp := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.NCCL, GPUs: 8})
		q4 := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.NCCL,
			Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
		if speedup := q4.SamplesPerSec / fp.SamplesPerSec; speedup > 1.25 {
			t.Errorf("%s NCCL speedup %.2f — paper calls these negligible", net.Name, speedup)
		}
	}
	fp := mustRun(t, Config{Network: workload.VGG19, Machine: workload.EC2P2, Primitive: comm.NCCL, GPUs: 8})
	q4 := mustRun(t, Config{Network: workload.VGG19, Machine: workload.EC2P2, Primitive: comm.NCCL,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	if speedup := q4.SamplesPerSec / fp.SamplesPerSec; speedup < 1.05 || speedup > 1.6 {
		t.Errorf("VGG19 NCCL speedup %.2f, paper shows 1.1–1.5×", speedup)
	}
}

// Claim (§3.2): classic 1bitSGD is *slower than full precision* on
// heavily convolutional networks; the reshaped variant fixes it.
func TestClaimClassicOneBitSlowerOnConvNets(t *testing.T) {
	for _, net := range []workload.Network{workload.ResNet50, workload.ResNet152, workload.BNInception} {
		fp := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
		classic := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI,
			Policy: quant.NewPolicy(quant.OneBit{}), GPUs: 8})
		reshaped := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI,
			Policy: quant.NewPolicy(quant.NewOneBitReshaped(64)), GPUs: 8})
		if classic.SamplesPerSec >= fp.SamplesPerSec {
			t.Errorf("%s: classic 1bit (%.0f) should be slower than fp32 (%.0f)",
				net.Name, classic.SamplesPerSec, fp.SamplesPerSec)
		}
		if reshaped.SamplesPerSec <= classic.SamplesPerSec {
			t.Errorf("%s: reshaping should fix classic 1bit", net.Name)
		}
		if ratio := reshaped.SamplesPerSec / classic.SamplesPerSec; ratio < 2 {
			t.Errorf("%s: reshaping speedup %.1f×, paper reports up to 4×", net.Name, ratio)
		}
	}
}

// Claim: classic 1bitSGD is fine on FC-dominated AlexNet.
func TestClaimClassicOneBitFastOnAlexNet(t *testing.T) {
	fp := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
	classic := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI,
		Policy: quant.NewPolicy(quant.OneBit{}), GPUs: 8})
	if classic.SamplesPerSec < 2*fp.SamplesPerSec {
		t.Errorf("AlexNet classic 1bit (%.0f) should be ≥2× fp32 (%.0f)",
			classic.SamplesPerSec, fp.SamplesPerSec)
	}
}

// Claim ("Is using extremely low precision ever helpful?"): diminishing
// returns — 2-bit rarely beats 4-bit by much, even on MPI.
func TestClaimDiminishingReturnsBelow4Bit(t *testing.T) {
	for _, net := range workload.PerformanceNetworks() {
		q4 := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI,
			Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
		q2 := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI,
			Policy: quant.NewPolicy(quant.NewQSGD(2, 128, quant.MaxNorm)), GPUs: 8})
		if gain := q2.SamplesPerSec / q4.SamplesPerSec; gain > 1.25 {
			t.Errorf("%s: 2-bit over 4-bit gain %.2f — paper reports diminishing returns", net.Name, gain)
		}
	}
}

// Claim ("Do we really need 16 GPUs?"): going 8→16 rarely doubles
// throughput; for several networks it is a slowdown at full precision.
func TestClaim16GPUsRarelyWorthIt(t *testing.T) {
	slowdowns := 0
	for _, net := range []workload.Network{workload.AlexNet, workload.VGG19, workload.ResNet110} {
		r8 := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
		r16 := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 16})
		if r16.SamplesPerSec < r8.SamplesPerSec {
			slowdowns++
		}
		if r16.SamplesPerSec > 1.9*r8.SamplesPerSec {
			t.Errorf("%s: 16 GPUs gave %.2f× over 8 — would justify the 2× price, contradicting the paper",
				net.Name, r16.SamplesPerSec/r8.SamplesPerSec)
		}
	}
	if slowdowns == 0 {
		t.Error("expected at least one fp32 slowdown going 8→16 GPUs (paper shows several)")
	}
}

// Claim (DGX-1 §5.2): on the fast interconnect, MPI still benefits from
// quantisation (up to ~5× on VGG) but NCCL gains stay modest.
func TestClaimDGXBehaviour(t *testing.T) {
	fpMPI := mustRun(t, Config{Network: workload.VGG19, Machine: workload.DGX1, Primitive: comm.MPI, GPUs: 8})
	q4MPI := mustRun(t, Config{Network: workload.VGG19, Machine: workload.DGX1, Primitive: comm.MPI,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	// The paper reports "up to 5×"; an additive cost model caps the
	// gain at (compute+comm)/compute ≈ 3.5, so we assert a substantial
	// but not full reproduction (see internal/harness/claims.go).
	if speedup := q4MPI.SamplesPerSec / fpMPI.SamplesPerSec; speedup < 2.5 {
		t.Errorf("DGX VGG19 MPI 4-bit speedup %.2f, paper shows up to ~5×", speedup)
	}
	fpN := mustRun(t, Config{Network: workload.VGG19, Machine: workload.DGX1, Primitive: comm.NCCL, GPUs: 8})
	q4N := mustRun(t, Config{Network: workload.VGG19, Machine: workload.DGX1, Primitive: comm.NCCL,
		Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	if speedup := q4N.SamplesPerSec / fpN.SamplesPerSec; speedup < 1.05 || speedup > 1.8 {
		t.Errorf("DGX VGG19 NCCL speedup %.2f, paper shows ≈1.6×", speedup)
	}
	// The DGX runs faster than EC2 overall (newer GPUs + interconnect).
	ec2 := mustRun(t, Config{Network: workload.VGG19, Machine: workload.EC2P2, Primitive: comm.NCCL, GPUs: 8})
	if fpN.SamplesPerSec <= ec2.SamplesPerSec {
		t.Error("DGX-1 should outperform the EC2 instance")
	}
}

// Claim (VGG19 super-linear scaling): per-GPU batch 16 processes
// samples faster, producing super-linear NCCL scaling at 8 GPUs.
func TestClaimVGGSuperLinearScaling(t *testing.T) {
	r := mustRun(t, Config{Network: workload.VGG19, Machine: workload.EC2P2, Primitive: comm.NCCL, GPUs: 8})
	scal, err := Scalability(r, workload.VGG19, workload.EC2P2)
	if err != nil {
		t.Fatal(err)
	}
	if scal < 8.5 {
		t.Errorf("VGG19 NCCL@8 scalability %.1f — paper shows super-linear (>8×)", scal)
	}
}

// Claim (Outlook, Figure 16 right): the 8-bit NCCL speedup grows
// monotonically with the model-size-to-compute ratio, starts negligible
// for today's networks, becomes significant (≈2×) in the extrapolated
// regime, and never exceeds the 4× bandwidth bound. (The paper's own
// curve saturates around 2× because the quantisation kernels scale
// with the dummy model as well.)
func TestClaimSpeedupGrowsWithModelSizeRatio(t *testing.T) {
	var first, prev float64
	for i, extra := range []int64{0, 200e6, 2e9, 20e9} {
		net := WithDummyParams(workload.AlexNet, extra)
		fp := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.NCCL, GPUs: 8})
		q8 := mustRun(t, Config{Network: net, Machine: workload.EC2P2, Primitive: comm.NCCL,
			Policy: quant.NewPolicy(quant.NewQSGD(8, 512, quant.MaxNorm)), GPUs: 8})
		speedup := q8.SamplesPerSec / fp.SamplesPerSec
		if i == 0 {
			first = speedup
		}
		if speedup < prev-1e-9 {
			t.Errorf("step %d: speedup %.2f decreased from %.2f", i, speedup, prev)
		}
		if speedup > 4.05 {
			t.Errorf("speedup %.2f exceeds the 4× bandwidth bound", speedup)
		}
		prev = speedup
	}
	if first > 1.3 {
		t.Errorf("today's-AlexNet speedup %.2f should be small (paper: minimal)", first)
	}
	if prev < 1.5 {
		t.Errorf("extrapolated speedup %.2f should become significant (paper: ≈2×)", prev)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Network: workload.AlexNet, Machine: workload.EC2P2, GPUs: 0}); err == nil {
		t.Error("expected error for 0 GPUs")
	}
	if _, err := Run(Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.NCCL, GPUs: 16}); err == nil {
		t.Error("expected error for NCCL@16")
	}
	if _, err := Run(Config{Network: workload.LSTMSpeech, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8}); err == nil {
		t.Error("expected error: LSTM has no 8-GPU batch in Figure 4")
	}
	if _, err := Run(Config{Network: workload.LSTMSpeech, Machine: workload.EC2P2,
		Primitive: comm.MPI, GPUs: 8, BatchOverride: 64}); err != nil {
		t.Errorf("batch override should permit the run: %v", err)
	}
}

func TestEpochTimeConsistency(t *testing.T) {
	r := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
	wantEpoch := 1_300_000 / r.SamplesPerSec
	if math.Abs(r.EpochSec-wantEpoch) > 1e-6 {
		t.Errorf("epoch time %v, want %v", r.EpochSec, wantEpoch)
	}
	if math.Abs(r.EpochHours()-r.EpochSec/3600) > 1e-12 {
		t.Error("EpochHours inconsistent")
	}
}

func TestWithDummyParams(t *testing.T) {
	base := workload.AlexNet
	grown := WithDummyParams(base, 1e9)
	if grown.Params() < base.Params()+9e8 {
		t.Error("dummy params not added")
	}
	if len(base.Tensors) == len(grown.Tensors) {
		t.Error("dummy tensor missing")
	}
	if same := WithDummyParams(base, 0); len(same.Tensors) != len(base.Tensors) {
		t.Error("zero extra params must be a no-op")
	}
}

func TestQuantTimeZeroForFP32(t *testing.T) {
	r := mustRun(t, Config{Network: workload.ResNet50, Machine: workload.EC2P2, Primitive: comm.MPI, GPUs: 8})
	if r.QuantSec != 0 {
		t.Error("fp32 must not pay quantisation kernels")
	}
}

// TestOverlapReducesIterTime: the double-buffering knob hides
// communication behind compute, monotonically.
func TestOverlapReducesIterTime(t *testing.T) {
	var prev float64 = math.Inf(1)
	for _, ov := range []float64{0, 0.25, 0.5, 0.9} {
		r := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2,
			Primitive: comm.MPI, GPUs: 8, Overlap: ov})
		if r.IterSec >= prev {
			t.Fatalf("overlap %v did not reduce iteration time (%v >= %v)", ov, r.IterSec, prev)
		}
		// Never below the compute+quant floor.
		if r.IterSec < r.ComputeSec+r.QuantSec-1e-12 {
			t.Fatalf("overlap %v dropped below the compute floor", ov)
		}
		prev = r.IterSec
	}
	if _, err := Run(Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: comm.MPI, GPUs: 8, Overlap: 1.5}); err == nil {
		t.Fatal("expected error for overlap outside [0,1)")
	}
}

// TestTopKInSimulator: the sparse codec flows through the plan and the
// cost model (its index overhead shows in the wire bytes).
func TestTopKInSimulator(t *testing.T) {
	r := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: comm.MPI, Policy: quant.NewPolicy(quant.NewTopK(0.01)), GPUs: 8})
	ratio := float64(r.RawBytes) / float64(r.WireBytes)
	if ratio < 40 || ratio > 60 {
		t.Fatalf("top-k 1%% whole-model ratio %.1f, want ≈50 (index overhead)", ratio)
	}
	if r.SamplesPerSec < 100 {
		t.Fatalf("implausible throughput %v", r.SamplesPerSec)
	}
}

// frameNet is a laptop-sized network literal for the framed-volume
// tests: small enough to push through a real TCP mesh in-process.
func frameNet() workload.Network {
	return workload.Network{
		Name: "frame-test",
		Tensors: []quant.TensorInfo{
			{Name: "conv.W", Shape: quant.Shape{Rows: 3, Cols: 512}},
			{Name: "fc.W", Shape: quant.Shape{Rows: 256, Cols: 64}},
			{Name: "fc.b", Shape: quant.Shape{Rows: 130, Cols: 1}},
		},
		ThroughputK80: 1000,
	}
}

// TestFramedSimulatedVolumeMatchesMeasuredTCP: the headline of the
// framing satellite — the simulator's framed ExchangeBytes must equal,
// byte for byte, what a real TCP exchange of the same tensors under the
// same policy puts on the wire. The policies cover the whole surface:
// plain codecs (wrapped into default policies), a tightened exemption
// target, and mixed per-tensor rule policies whose frames carry a
// different codec name per tensor.
func TestFramedSimulatedVolumeMatchesMeasuredTCP(t *testing.T) {
	const k = 3
	net := frameNet()
	for _, policy := range []*quant.Policy{
		quant.NewPolicy(quant.FP32{}),
		quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		quant.NewPolicy(quant.NewOneBitReshaped(64)),
		quant.MustParsePolicy("qsgd4b512;minfrac=0.5"),
		quant.MustParsePolicy("qsgd4b512;conv.W=topk0.01;*.b=32bit"),
		quant.MustParsePolicy("1bit*64;minfrac=1;fc.W=qsgd8b512"),
	} {
		res := mustRun(t, Config{Network: net, Machine: workload.EC2P2,
			Primitive: comm.MPI, Policy: policy, GPUs: k, BatchOverride: 3 * k, Framed: true})

		if measured := measureTCPExchange(t, comm.MPI, policy, net, k); res.ExchangeBytes != measured {
			t.Errorf("%s: simulator predicts %d exchange bytes, TCP moved %d",
				policy.Name(), res.ExchangeBytes, measured)
		}

		// And the framed prediction must exceed the headerless one by
		// exactly the per-copy header share.
		raw := mustRun(t, Config{Network: net, Machine: workload.EC2P2,
			Primitive: comm.MPI, Policy: policy, GPUs: k, BatchOverride: 3 * k})
		wantPerCopy := (res.ExchangeBytes - raw.ExchangeBytes) / int64(2*(k-1))
		if res.WireBytes != raw.WireBytes+wantPerCopy {
			t.Errorf("%s: framed WireBytes %d, want %d + %d",
				policy.Name(), res.WireBytes, raw.WireBytes, wantPerCopy)
		}
		if res.CommSec <= raw.CommSec {
			t.Errorf("%s: frame headers must cost transfer time (%v <= %v)",
				policy.Name(), res.CommSec, raw.CommSec)
		}
	}
}

// TestPolicyPlumbedThroughSimulator: the result names the caller's
// policy, and the exemption target is the caller's, not a hardcoded
// 0.99.
func TestPolicyPlumbedThroughSimulator(t *testing.T) {
	viaPolicy := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: comm.MPI, Policy: quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)), GPUs: 8})
	if viaPolicy.Codec != "qsgd4b512" {
		t.Fatalf("result names policy %q, want qsgd4b512", viaPolicy.Codec)
	}
	// minfrac=1 exempts nothing, so it must move at least as few bytes
	// as the default target, and a rule forcing a tensor to 32bit must
	// show up in the priced volume.
	all := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: comm.MPI, Policy: quant.MustParsePolicy("qsgd4b512;minfrac=1"), GPUs: 8})
	if all.WireBytes > viaPolicy.WireBytes {
		t.Fatalf("minfrac=1 (%d bytes) must not exceed the default exemption (%d bytes)",
			all.WireBytes, viaPolicy.WireBytes)
	}
	ruled := mustRun(t, Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: comm.MPI, Policy: quant.MustParsePolicy("qsgd4b512;minfrac=1;fc6=32bit"), GPUs: 8})
	if ruled.WireBytes <= all.WireBytes {
		t.Fatalf("an fc6=32bit rule must increase the priced volume (%d <= %d)",
			ruled.WireBytes, all.WireBytes)
	}
}

// measureTCPExchange runs one real exchange of net's tensors under the
// policy's plan over a loopback TCP mesh and returns the bytes it moved.
func measureTCPExchange(t *testing.T, prim comm.Primitive, policy *quant.Policy, net workload.Network, k int) int64 {
	t.Helper()
	plan := quant.NewPlan(policy, net.Tensors)
	specs := make([]comm.TensorSpec, len(net.Tensors))
	for i, ti := range net.Tensors {
		specs[i] = comm.TensorSpec{Name: ti.Name, N: ti.Shape.Len(),
			Wire: ti.Shape, Codec: plan.CodecFor(i)}
	}
	tcp, err := comm.NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	red := comm.NewCollective(tcp, prim, specs, 5, nil)
	var wg sync.WaitGroup
	errs := make([]error, k)
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ti := range specs {
				g := make([]float32, specs[ti].N)
				for i := range g {
					g[i] = float32(i%7) - 3
				}
				if err := red.Reduce(w, ti, g); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return tcp.TotalBytes()
}

// TestFramedRingVolumeMatchesMeasuredTCP: the same agreement for the
// NCCL ring, at full precision and carrying the plan's codecs.
func TestFramedRingVolumeMatchesMeasuredTCP(t *testing.T) {
	const k = 3
	net := frameNet()
	for _, policy := range []*quant.Policy{
		quant.NewPolicy(quant.FP32{}),
		quant.NewPolicy(quant.NewQSGD(4, 512, quant.MaxNorm)),
		quant.MustParsePolicy("qsgd4b512;conv.W=topk0.01;*.b=32bit"),
		quant.MustParsePolicy("1bit*64;minfrac=1;fc.W=qsgd8b512"),
	} {
		res := mustRun(t, Config{Network: net, Machine: workload.EC2P2,
			Primitive: comm.NCCL, Policy: policy, GPUs: k, BatchOverride: 3 * k, Framed: true})
		if measured := measureTCPExchange(t, comm.NCCL, policy, net, k); res.ExchangeBytes != measured {
			t.Errorf("%s ring: simulator predicts %d exchange bytes, TCP moved %d",
				policy.Name(), res.ExchangeBytes, measured)
		}
	}
}
