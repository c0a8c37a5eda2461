package harness

import (
	"strings"
	"testing"

	"repro/comm"
	"repro/internal/workload"
)

func TestCodecByLabel(t *testing.T) {
	for _, label := range PrecisionLabels {
		c, err := CodecByLabel(label)
		if err != nil || c == nil {
			t.Errorf("label %q: %v", label, err)
		}
	}
	if _, err := CodecByLabel("qsgd3"); err == nil {
		t.Error("expected error for unknown label")
	}
}

func TestEpochTimeFigurePanels(t *testing.T) {
	tables, err := EpochTimeFigure(workload.EC2P2, comm.MPI, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("Figure 6 has %d panels, want 5", len(tables))
	}
	for _, tb := range tables {
		if len(tb.Rows) != len(PrecisionLabels) {
			t.Errorf("%s: %d rows, want %d", tb.Title, len(tb.Rows), len(PrecisionLabels))
		}
	}
}

func TestEpochTimeNCCLExcludesOneBit(t *testing.T) {
	for _, label := range Ladder(comm.NCCL) {
		if strings.HasPrefix(label, "1bit") {
			t.Errorf("NCCL ladder contains %q", label)
		}
	}
	tables, err := EpochTimeFigure(workload.EC2P2, comm.NCCL, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if strings.HasPrefix(row[0], "1bit") {
				t.Errorf("%s: NCCL figure contains 1-bit row", tb.Title)
			}
		}
	}
}

// TestFig6ShapeVGGBenefitsMost: in the MPI epoch-time figure the
// communication-dominated networks must show the largest quantisation
// gains (paper §5.2).
func TestFig6ShapeVGGBenefitsMost(t *testing.T) {
	gain := func(net workload.Network) float64 {
		fp, err := simRun(net, workload.EC2P2, comm.MPI, "32bit", 8)
		if err != nil {
			t.Fatal(err)
		}
		q4, err := simRun(net, workload.EC2P2, comm.MPI, "qsgd4", 8)
		if err != nil {
			t.Fatal(err)
		}
		return fp.EpochSec / q4.EpochSec
	}
	if gain(workload.VGG19) <= gain(workload.BNInception) {
		t.Error("VGG19 must gain more from quantisation than BN-Inception")
	}
	if gain(workload.AlexNet) <= gain(workload.ResNet50) {
		t.Error("AlexNet must gain more from quantisation than ResNet50")
	}
}

func TestThroughputFigureIncludesPaperComparison(t *testing.T) {
	tables, err := ThroughputFigure(workload.EC2P2, comm.MPI)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 6 {
		t.Fatalf("Figure 10 has %d blocks, want 6", len(tables))
	}
	// Every block must carry paper ratios for its reported cells.
	foundRatio := false
	for _, tb := range tables {
		for _, row := range tb.Rows {
			if row[4] != "-" {
				foundRatio = true
			}
		}
	}
	if !foundRatio {
		t.Fatal("no paper comparison ratios found")
	}
}

func TestThroughputFigureNCCL(t *testing.T) {
	tables, err := ThroughputFigure(workload.EC2P2, comm.NCCL)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 5 {
		t.Fatalf("Figure 11 has %d blocks, want 5 (no ResNet110)", len(tables))
	}
}

func TestScalabilityFigure(t *testing.T) {
	for _, tc := range []struct {
		m    workload.Machine
		prim comm.Primitive
	}{
		{workload.EC2P2, comm.MPI},
		{workload.EC2P2, comm.NCCL},
		{workload.DGX1, comm.MPI},
		{workload.DGX1, comm.NCCL},
	} {
		tables, err := ScalabilityFigure(tc.m, tc.prim)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.m.Name, tc.prim, err)
		}
		if len(tables) != 5 {
			t.Fatalf("%s/%s: %d panels", tc.m.Name, tc.prim, len(tables))
		}
	}
}

// TestScalabilityQuantisedBeatsFullPrecisionOnMPI: quantisation
// consistently improves MPI scalability (paper §5.3).
func TestScalabilityQuantisedBeatsFullPrecisionOnMPI(t *testing.T) {
	for _, net := range []workload.Network{workload.AlexNet, workload.ResNet152, workload.VGG19} {
		fp, err := simRun(net, workload.EC2P2, comm.MPI, "32bit", 16)
		if err != nil {
			t.Fatal(err)
		}
		q4, err := simRun(net, workload.EC2P2, comm.MPI, "qsgd4", 16)
		if err != nil {
			t.Fatal(err)
		}
		if q4.SamplesPerSec <= fp.SamplesPerSec {
			t.Errorf("%s: 4-bit must out-scale 32-bit on MPI at 16 GPUs", net.Name)
		}
	}
}

func TestCostAccuracyTable(t *testing.T) {
	tb, err := CostAccuracyTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("Figure 16 left has %d rows, want 3", len(tb.Rows))
	}
}

// TestCostAccuracyDiminishingReturns: the paper's monotone
// cost-accuracy curve with diminishing returns — each accuracy point
// gained costs more than the last.
func TestCostAccuracyDiminishingReturns(t *testing.T) {
	alex, err := CheapestTraining(workload.AlexNet)
	if err != nil {
		t.Fatal(err)
	}
	r50, err := CheapestTraining(workload.ResNet50)
	if err != nil {
		t.Fatal(err)
	}
	r152, err := CheapestTraining(workload.ResNet152)
	if err != nil {
		t.Fatal(err)
	}
	if !(alex.CostDollars < r50.CostDollars && r50.CostDollars < r152.CostDollars) {
		t.Fatalf("costs not monotone: %v %v %v", alex.CostDollars, r50.CostDollars, r152.CostDollars)
	}
	if !(alex.Top1 < r50.Top1 && r50.Top1 < r152.Top1) {
		t.Fatal("accuracies not monotone")
	}
	costPerPoint1 := (r50.CostDollars - alex.CostDollars) / (r50.Top1 - alex.Top1)
	costPerPoint2 := (r152.CostDollars - r50.CostDollars) / (r152.Top1 - r50.Top1)
	if costPerPoint2 <= costPerPoint1 {
		t.Errorf("no diminishing returns: %.0f$/pt then %.0f$/pt", costPerPoint1, costPerPoint2)
	}
}

func TestSpeedupSweepMonotone(t *testing.T) {
	rows, err := SpeedupSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("sweep has %d points", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Speedup < rows[i-1].Speedup-1e-9 {
			t.Errorf("speedup not monotone at %d: %v after %v", i, rows[i].Speedup, rows[i-1].Speedup)
		}
		if rows[i].MBPerGFLOP <= rows[i-1].MBPerGFLOP {
			t.Errorf("ratio axis not increasing at %d", i)
		}
	}
	last := rows[len(rows)-1].Speedup
	if last < 1.5 || last > 4 {
		t.Errorf("asymptotic speedup %.2f outside the paper's projected band", last)
	}
	tb, err := SpeedupSweepTable()
	if err != nil || len(tb.Rows) != len(rows) {
		t.Fatal("table rendering mismatch")
	}
}

func TestFullGridCoverage(t *testing.T) {
	rows, err := FullGrid()
	if err != nil {
		t.Fatal(err)
	}
	// Sanity bounds on the cross-product size: 2 machines × 2 primitives
	// × 7 networks × up to 7 precisions × up to 5 GPU counts, minus the
	// infeasible cells.
	if len(rows) < 300 || len(rows) > 900 {
		t.Fatalf("grid has %d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		key := r.Machine + "/" + r.Primitive + "/" + r.Network + "/" + r.Precision
		seen[key] = true
		if r.Result.SamplesPerSec <= 0 {
			t.Fatalf("non-positive throughput in %+v", r)
		}
	}
	for _, must := range []string{
		"EC2-P2/MPI/AlexNet/1bit",
		"EC2-P2/NCCL/VGG19/qsgd4",
		"DGX-1/MPI/ResNet152/1bit*",
		"DGX-1/NCCL/BN-Inception/32bit",
	} {
		if !seen[must] {
			t.Errorf("grid missing %s", must)
		}
	}
	// NCCL must never carry 1-bit rows; single GPUs never quantise.
	for _, r := range rows {
		if r.Primitive == "NCCL" && (r.Precision == "1bit" || r.Precision == "1bit*") {
			t.Fatalf("NCCL row with 1-bit codec: %+v", r)
		}
		if r.GPUs == 1 && r.Precision != "32bit" {
			t.Fatalf("quantised single-GPU row: %+v", r)
		}
	}
}

func TestGridTableRenders(t *testing.T) {
	tb, err := GridTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 300 {
		t.Fatalf("grid table has %d rows", len(tb.Rows))
	}
}

func TestBestConfiguration(t *testing.T) {
	best, err := BestConfiguration("AlexNet", "EC2-P2")
	if err != nil {
		t.Fatal(err)
	}
	// The best AlexNet config on EC2 should be a quantised MPI run or a
	// fast NCCL run at 8 GPUs — certainly not a single GPU.
	if best.GPUs < 8 {
		t.Fatalf("best AlexNet config uses only %d GPUs", best.GPUs)
	}
	if _, err := BestConfiguration("Nope", "EC2-P2"); err == nil {
		t.Fatal("expected error for unknown network")
	}
}

func TestLossTimeTable(t *testing.T) {
	s := imageStudy(t)
	tb := s.LossTimeTable()
	if len(tb.Rows) != 12 {
		t.Fatalf("loss-time table has %d rows", len(tb.Rows))
	}
	if len(tb.Header) != 1+2*len(Fig5Codecs()) {
		t.Fatalf("loss-time header has %d columns", len(tb.Header))
	}
}
