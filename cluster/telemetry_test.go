package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/health"
	"repro/obs"
)

func hubSnap(step int64, loss float64) health.TelemetrySnapshot {
	return health.TelemetrySnapshot{
		Step: step, Loss: loss,
		Compute: time.Duration(step) * time.Millisecond, Exchange: time.Millisecond,
		Tensors: []health.TensorTelemetry{
			{Name: "w", GradL2: loss * 2, GradInf: loss, RMSE: 0.01, Compression: 7.9},
		},
	}
}

// TestTelemetryHubAggregates: per-rank state, min/mean/max across
// ranks, straggler attribution and the reporting count all fold
// correctly through Observe.
func TestTelemetryHubAggregates(t *testing.T) {
	h := NewTelemetryHub(3, "qsgd4b512")
	st := h.Status()
	if st.Reporting != 0 || st.Straggler != -1 || st.WorldSize != 3 || len(st.Ranks) != 0 {
		t.Fatalf("empty hub status: %+v", st)
	}
	h.Observe(0, hubSnap(5, 0.4))
	h.Observe(2, hubSnap(7, 0.2))
	h.Observe(-1, hubSnap(1, 9)) // dropped
	h.Observe(3, hubSnap(1, 9))  // dropped
	st = h.Status()
	if st.Reporting != 2 || len(st.Ranks) != 2 {
		t.Fatalf("reporting: %+v", st)
	}
	if st.MinStep != 5 || st.MaxStep != 7 {
		t.Fatalf("step bounds: %+v", st)
	}
	if float64(st.MinLoss) != 0.2 || float64(st.MaxLoss) != 0.4 || math.Abs(float64(st.MeanLoss)-0.3) > 1e-12 {
		t.Fatalf("loss aggregates: %+v", st)
	}
	// Rank 2's compute (7ms) makes it the straggler.
	if st.Straggler != 2 {
		t.Fatalf("straggler = %d, want 2", st.Straggler)
	}
	if st.Policy != "qsgd4b512" {
		t.Fatalf("policy = %q", st.Policy)
	}
	if len(st.Ranks[0].Tensors) != 1 || st.Ranks[0].Tensors[0].Name != "w" {
		t.Fatalf("tensors: %+v", st.Ranks[0])
	}
	// A re-observation replaces the rank's slot, not appends.
	h.Observe(0, hubSnap(6, 0.35))
	if st = h.Status(); st.Reporting != 2 || st.Ranks[0].Step != 6 {
		t.Fatalf("re-observe: %+v", st)
	}
}

// TestTelemetryHubMetricsText: the Prometheus rendering carries every
// reporting rank and the per-tensor aggregate series.
func TestTelemetryHubMetricsText(t *testing.T) {
	h := NewTelemetryHub(2, "1bit")
	h.Observe(0, hubSnap(3, 0.5))
	h.Observe(1, hubSnap(4, 0.3))
	var sb strings.Builder
	if err := h.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"lpsgd_cluster_world 2\n",
		"lpsgd_cluster_ranks_reporting 2\n",
		`lpsgd_cluster_rank_step{rank="0"} 3`,
		`lpsgd_cluster_rank_step{rank="1"} 4`,
		`lpsgd_cluster_rank_loss{rank="1"} 0.3`,
		`lpsgd_cluster_loss{agg="min"} 0.3`,
		`lpsgd_cluster_loss{agg="max"} 0.5`,
		`lpsgd_cluster_loss{agg="mean"} 0.4`,
		`lpsgd_cluster_loss{agg="sum"} 0.8`,
		`lpsgd_cluster_grad_l2{tensor="w",agg="max"} 1`,
		`lpsgd_cluster_compression{tensor="w",agg="mean"} 7.9`,
		"lpsgd_cluster_straggler_rank 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTelemetryHubServed: the hub's endpoints mount on obs.Serve and a
// NaN loss degrades to null in the JSON instead of a 500.
func TestTelemetryHubServed(t *testing.T) {
	h := NewTelemetryHub(2, "32bit")
	h.Observe(0, hubSnap(1, math.NaN()))
	s, err := obs.Serve("127.0.0.1:0", nil, nil, h.Endpoints()...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/cluster/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("status decode: %v", err)
	}
	if st.Reporting != 1 || len(st.Ranks) != 1 {
		t.Fatalf("served status: %+v", st)
	}
	if !math.IsNaN(float64(st.Ranks[0].Loss)) {
		t.Fatalf("NaN loss should decode back as NaN, got %v", st.Ranks[0].Loss)
	}
	resp2, err := http.Get("http://" + s.Addr() + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp2.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `lpsgd_cluster_rank_loss{rank="0"} NaN`) {
		t.Fatalf("metrics text: %s", sb.String())
	}
}

// TestTelemetryHubTrend: the loss trend appends one point per step
// frontier and stays bounded.
func TestTelemetryHubTrend(t *testing.T) {
	h := NewTelemetryHub(1, "32bit")
	for i := 1; i <= lossTrendCap+40; i++ {
		h.Observe(0, hubSnap(int64(i), 1/float64(i)))
	}
	st := h.Status()
	if len(st.LossTrend) != lossTrendCap {
		t.Fatalf("trend length %d, want %d", len(st.LossTrend), lossTrendCap)
	}
	// Oldest first: strictly decreasing loss in this series.
	for i := 1; i < len(st.LossTrend); i++ {
		if !(st.LossTrend[i] < st.LossTrend[i-1]) {
			t.Fatalf("trend not oldest-first at %d: %v", i, st.LossTrend[i-1:i+1])
		}
	}
	// Same-frontier re-observation overwrites, not appends.
	before := len(h.Status().LossTrend)
	h.Observe(0, hubSnap(int64(lossTrendCap+40), 0.5))
	if after := len(h.Status().LossTrend); after != before {
		t.Fatalf("same-step observation grew the trend: %d -> %d", before, after)
	}
}

// TestTelemetryHubMetricsEscapesTensorNames: tensor names come from
// peers, so one carrying a quote, a backslash or a newline must stay
// inside its label value instead of forging a sample of its own.
func TestTelemetryHubMetricsEscapesTensorNames(t *testing.T) {
	h := NewTelemetryHub(1, "32bit")
	snap := hubSnap(1, 0.5)
	snap.Tensors = []health.TensorTelemetry{
		{Name: "w\"}\nlpsgd_injected 1\n#", GradL2: 1},
		{Name: `back\slash"} 2`, GradL2: 1},
	}
	h.Observe(0, snap)
	var sb strings.Builder
	if err := h.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !strings.HasPrefix(line, "lpsgd_cluster_") {
			t.Errorf("a sample spilled onto its own line: %q", line)
		}
	}
	for _, want := range []string{
		`lpsgd_cluster_grad_l2{tensor="w\"}\nlpsgd_injected 1\n#",agg="max"} 1` + "\n",
		`lpsgd_cluster_grad_l2{tensor="back\\slash\"} 2",agg="max"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing escaped sample %q in:\n%s", want, out)
		}
	}
}
