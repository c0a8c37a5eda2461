package workload

import (
	"math"
	"testing"

	"repro/quant"
)

// TestParameterCountsMatchFigure3 verifies that the tensor inventories
// reproduce the paper's parameter counts (Figure 3) within tolerance —
// the inventories drive every wire-volume computation downstream.
func TestParameterCountsMatchFigure3(t *testing.T) {
	cases := []struct {
		net     Network
		paperM  float64 // Figure 3 "Params" in millions
		tolFrac float64
	}{
		{AlexNet, 62, 0.05},
		{VGG19, 143, 0.05},
		{BNInception, 11, 0.20}, // paper rounds aggressively; module table approximated
		{ResNet50, 25, 0.08},
		{ResNet152, 60, 0.08},
		{ResNet110, 1.7, 0.15}, // paper says 1M but ResNet-110 is 1.7M
		{LSTMSpeech, 13, 0.15},
	}
	for _, tc := range cases {
		gotM := float64(tc.net.Params()) / 1e6
		if math.Abs(gotM-tc.paperM)/tc.paperM > tc.tolFrac {
			t.Errorf("%s: %0.2fM params, paper says %.1fM (tol %.0f%%)",
				tc.net.Name, gotM, tc.paperM, tc.tolFrac*100)
		}
	}
}

// TestConvTensorsHaveSmallRows: the CNTK-layout artefact the paper's
// reshaping discussion depends on — conv kernels must present tiny row
// counts to the codec.
func TestConvTensorsHaveSmallRows(t *testing.T) {
	for _, ti := range ResNet152.Tensors {
		if ti.Shape.Rows == 3 && ti.Shape.Cols > 1 {
			return // found a 3-row conv tensor
		}
	}
	t.Fatal("ResNet152 inventory has no 3-row conv tensors")
}

// TestClassicOneBitExpandsResNet: classic 1bitSGD must fail to compress
// ResNet-style inventories (ratio ≈ 1) while 1bitSGD* compresses ~16×,
// reproducing §3.2's observation.
func TestClassicOneBitExpandsResNet(t *testing.T) {
	classic, reshaped := quant.OneBit{}, quant.NewOneBitReshaped(64)
	var rawB, classicB, reshapedB int64
	for _, ti := range ResNet152.Tensors {
		n := ti.Shape.Len()
		rawB += int64(4 * n)
		classicB += int64(classic.EncodedBytes(n, ti.Shape))
		reshapedB += int64(reshaped.EncodedBytes(n, ti.Shape))
	}
	classicRatio := float64(rawB) / float64(classicB)
	reshapedRatio := float64(rawB) / float64(reshapedB)
	if classicRatio > 1.5 {
		t.Errorf("classic 1bit compresses ResNet152 %.2f× — artefact not reproduced", classicRatio)
	}
	if reshapedRatio < 12 {
		t.Errorf("reshaped 1bit only %.2f× on ResNet152", reshapedRatio)
	}
}

// TestAlexNetOneBitCompressesFC: on AlexNet the FC layers dominate and
// classic 1bit must compress well overall (paper: AlexNet 1bit is fast).
func TestAlexNetOneBitCompressesFC(t *testing.T) {
	classic := quant.OneBit{}
	var rawB, encB int64
	for _, ti := range AlexNet.Tensors {
		n := ti.Shape.Len()
		rawB += int64(4 * n)
		encB += int64(classic.EncodedBytes(n, ti.Shape))
	}
	if ratio := float64(rawB) / float64(encB); ratio < 10 {
		t.Errorf("classic 1bit on AlexNet only %.1f×, expected FC-dominated >10×", ratio)
	}
}

func TestBatchTableMatchesFigure4(t *testing.T) {
	cases := []struct {
		net  Network
		k    int
		want int
	}{
		{AlexNet, 16, 256},
		{VGG19, 1, 32}, {VGG19, 8, 128},
		{ResNet50, 4, 128}, {ResNet50, 8, 256},
		{ResNet152, 1, 16}, {ResNet152, 16, 256},
		{ResNet110, 8, 128},
		{BNInception, 1, 64}, {BNInception, 4, 256},
		{LSTMSpeech, 2, 16},
	}
	for _, tc := range cases {
		got, ok := tc.net.BatchFor(tc.k)
		if !ok || got != tc.want {
			t.Errorf("%s@%dGPU: batch %d (ok=%v), want %d", tc.net.Name, tc.k, got, ok, tc.want)
		}
	}
	if _, ok := LSTMSpeech.BatchFor(8); ok {
		t.Error("LSTM has no 8-GPU configuration in Figure 4")
	}
}

func TestMachinesMatchFigure2(t *testing.T) {
	if EC2P2.GPU.Name != "K80" || EC2P2.MaxGPUs != 16 || EC2P2.GPU.Arch != "Kepler" {
		t.Error("EC2 P2 spec wrong")
	}
	if DGX1.GPU.Name != "P100" || DGX1.MaxGPUs != 8 || DGX1.GPU.Arch != "Pascal" {
		t.Error("DGX-1 spec wrong")
	}
	if DGX1.PricePerHour != 50 {
		t.Error("DGX-1 price should be $50/h (Nimbix)")
	}
	inst, err := CheapestInstanceFor(4)
	if err != nil || inst.Name != "p2.8xlarge" {
		t.Errorf("cheapest for 4 GPUs = %v, %v", inst, err)
	}
	inst, _ = CheapestInstanceFor(1)
	if inst.PricePerHour != 0.9 {
		t.Error("p2.xlarge price wrong")
	}
	if _, err := CheapestInstanceFor(32); err == nil {
		t.Error("expected error above 16 GPUs")
	}
}

func TestLinkModelBandwidthContracts(t *testing.T) {
	l := LinkModel{BaseGBps: 1, Contraction: 0.8, LatencyPerMsg: 0}
	if got := l.Bandwidth(2); math.Abs(got-1e9) > 1 {
		t.Errorf("BW(2) = %v", got)
	}
	if got := l.Bandwidth(8); math.Abs(got-0.64e9) > 1e6 {
		t.Errorf("BW(8) = %v, want 0.64e9", got)
	}
	if l.TransferTime(1000, 1, 10) != 0 {
		t.Error("single GPU must transfer nothing")
	}
	// 2 GPUs, 1 GB: traffic = 1 GB, at 1 GB/s → 1 s.
	if got := l.TransferTime(1e9, 2, 0); math.Abs(got-1) > 1e-9 {
		t.Errorf("TransferTime = %v, want 1", got)
	}
}

func TestDatasetsMatchFigure1(t *testing.T) {
	im, err := DatasetByName("ImageNet")
	if err != nil || im.TrainN != 1_300_000 || im.Classes != 1000 {
		t.Error("ImageNet row wrong")
	}
	an4, err := DatasetByName("AN4")
	if err != nil || an4.TrainN != 948 || an4.ValN != 130 {
		t.Error("AN4 row wrong")
	}
	if _, err := DatasetByName("MNIST"); err == nil {
		t.Error("expected unknown-dataset error")
	}
}

func TestPaperTablesLookup(t *testing.T) {
	v, ok := PaperThroughput(PaperFig10MPI, "AlexNet", "32bit", 8)
	if !ok || v != 272.90 {
		t.Errorf("Fig10 AlexNet 32bit@8 = %v (%v)", v, ok)
	}
	v, ok = PaperThroughput(PaperFig11NCCL, "VGG19", "qsgd4", 8)
	if !ok || v != 179.50 {
		t.Errorf("Fig11 VGG19 qsgd4@8 = %v (%v)", v, ok)
	}
	if _, ok := PaperThroughput(PaperFig11NCCL, "AlexNet", "32bit", 16); ok {
		t.Error("NCCL@16 must be unreported")
	}
	if _, ok := PaperThroughput(PaperFig10MPI, "AlexNet", "qsgd4", 1); ok {
		t.Error("quantised single-GPU cells are '/' in the paper")
	}
	if rows := PaperRowsFor(PaperFig10MPI, "VGG19"); len(rows) != 7 {
		t.Errorf("VGG19 has %d Fig10 rows, want 7", len(rows))
	}
}

// TestCalibrationAnchorsAgree: the zoo's ThroughputK80 must equal the
// 1-GPU column of Figure 10 (they are the same measurement).
func TestCalibrationAnchorsAgree(t *testing.T) {
	for _, n := range PerformanceNetworks() {
		v, ok := PaperThroughput(PaperFig10MPI, n.Name, "32bit", 1)
		if !ok {
			t.Errorf("%s missing 1-GPU 32bit cell", n.Name)
			continue
		}
		if v != n.ThroughputK80 {
			t.Errorf("%s: anchor %v != table %v", n.Name, n.ThroughputK80, v)
		}
	}
}

// TestCommunicationRegimes: the study's framing — AlexNet/VGG are
// communication-dominated, BN-Inception/ResNet50 computation-dominated.
// MB/GFLOP separates them by an order of magnitude.
func TestCommunicationRegimes(t *testing.T) {
	if AlexNet.MBPerGFLOP() < 10*BNInception.MBPerGFLOP() {
		t.Errorf("AlexNet ratio %.2f not ≫ Inception %.2f",
			AlexNet.MBPerGFLOP(), BNInception.MBPerGFLOP())
	}
	if VGG19.MBPerGFLOP() < ResNet50.MBPerGFLOP() {
		t.Error("VGG19 should be more communication-bound than ResNet50")
	}
}

func TestNetworkByName(t *testing.T) {
	n, err := NetworkByName("VGG19")
	if err != nil || n.Params() < 100e6 {
		t.Error("VGG19 lookup failed")
	}
	if _, err := NetworkByName("LeNet"); err == nil {
		t.Error("expected unknown-network error")
	}
	if m, err := MachineByName("DGX-1"); err != nil || m.Name != "DGX-1" {
		t.Errorf("DGX-1 lookup: %v", err)
	}
	if _, err := MachineByName("TPU"); err == nil {
		t.Error("expected unknown-machine error")
	}
}

func TestSampleSpeedup(t *testing.T) {
	if VGG19.SampleSpeedup(32) != 1 {
		t.Error("no boost at batch 32")
	}
	if VGG19.SampleSpeedup(16) <= 1 {
		t.Error("VGG19 must boost at batch 16 (super-linear artefact)")
	}
	if AlexNet.SampleSpeedup(8) != 1 {
		t.Error("AlexNet has no small-batch boost")
	}
}
