package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/comm"
	"repro/internal/report"
	"repro/internal/workload"
)

var updateTables = flag.Bool("update-golden", false, "regenerate testdata/paper_tables.golden")

// renderPaperTables renders a representative slice of the paper's
// simulated figures — the exact text the CLI tools print — so any
// refactor of the pricing path is locked to byte-identical output.
func renderPaperTables(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	render := func(tables []*report.Table, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range tables {
			tb.Render(&buf)
			buf.WriteByte('\n')
		}
	}
	render(ThroughputFigure(workload.EC2P2, comm.MPI))
	render(ThroughputFigure(workload.EC2P2, comm.NCCL))
	render(EpochTimeFigure(workload.EC2P2, comm.MPI, 8))
	render(EpochTimeFigure(workload.DGX1, comm.NCCL, 8))
	render(ScalabilityFigure(workload.EC2P2, comm.MPI))
	return buf.Bytes()
}

// TestPaperTablesByteIdentical pins the harness's paper tables: the
// re-pointing of the pricing path at repro/sim (and any future
// simulator refactor) must not move a single byte of them.
func TestPaperTablesByteIdentical(t *testing.T) {
	got := renderPaperTables(t)
	path := filepath.Join("testdata", "paper_tables.golden")
	if *updateTables {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("paper tables drifted from %s (%d vs %d bytes); if the change is intended, regenerate with -update-golden",
			path, len(got), len(want))
	}
}
