package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestPercentileAndQuartiles(t *testing.T) {
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := percentile(vals, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := percentile(vals, 100); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	if got := percentile(vals, 90); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing must be NaN")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(vals)
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 4", q1, q3)
	}
	if got := spreadShare(vals); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %v, want 1", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "step", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "nn.forward", StartNS: 5, EndNS: 35},
		{ID: 3, Parent: 1, Name: "comm.exchange", StartNS: 40, EndNS: 90},
		{ID: 4, Parent: 3, Name: "comm.reduce", StartNS: 41, EndNS: 61},
		{ID: 5, Parent: 3, Name: "comm.reduce", StartNS: 62, EndNS: 82},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 20, 2: 30, 3: 10, 4: 20, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestStepsToTarget(t *testing.T) {
	ws := []window{{accuracy: 0.3}, {accuracy: 0.5}, {accuracy: 0.9}}
	// Crossing 0.7 half-way through the third window of 10 steps.
	if got, ok := stepsToTarget(ws, 0.7, 0.1, 10); !ok || math.Abs(got-25) > 1e-9 {
		t.Errorf("stepsToTarget = %v, %v, want 25, true", got, ok)
	}
	if got, ok := stepsToTarget(ws, 0.2, 0.1, 10); !ok || math.Abs(got-5) > 1e-9 {
		t.Errorf("first-window crossing = %v, %v, want 5, true", got, ok)
	}
	if _, ok := stepsToTarget(ws, 0.95, 0.1, 10); ok {
		t.Error("an unmet target must report !ok")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"step_ms_p50", "ms", "lower", 0.05}
	higher := metricDef{"samples_per_s", "samples/s", "higher", 0.08}
	cases := []struct {
		d                    metricDef
		old, new             float64
		oldSpread, newSpread float64
		want                 string
	}{
		{lower, 10, 10.2, 0.01, 0.01, "unchanged"},
		{lower, 10, 10.6, 0.01, 0.01, "regressed"},
		{lower, 10, 9.0, 0.01, 0.01, "improved"},
		{lower, 10, 10.2, 0.09, 0.01, "unresolved"},
		{lower, 10, 10.6, 0.09, 0.09, "regressed"},
		{higher, 100, 91, 0.01, 0.01, "regressed"},
		{higher, 100, 95, 0.01, 0.01, "unchanged"},
		{metricDef{"nn.forward_us", "us", "lower", 0}, 10, 20, 0, 0, "info"},
	}
	for _, c := range cases {
		got := verdict(c.d, compareRow{oldMed: c.old, newMed: c.new}, c.oldSpread, c.newSpread)
		if got != c.want {
			t.Errorf("%s %v -> %v (spreads %v, %v): verdict %q, want %q", c.d.name, c.old, c.new, c.oldSpread, c.newSpread, got, c.want)
		}
	}
}

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside the contract's alphabet", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.name, len(w.why))
		}
		if w.data.trainN%w.batch != 0 {
			t.Errorf("workload %s: TrainN %d is not a multiple of the batch %d", w.name, w.data.trainN, w.batch)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check("metric", d.name)
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			t.Errorf("metric %s: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
}

// benchmarkJSON mirrors the contract's file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSON holds BENCHMARK.json and the Go tables together, in
// both directions and in order.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if len(got) != len(wantKeys) {
		t.Fatalf("BENCHMARK.json keys = %v, want exactly %v", got, wantKeys)
	}
	for i := range got {
		if got[i] != wantKeys[i] {
			t.Fatalf("BENCHMARK.json keys = %v, want exactly %v", got, wantKeys)
		}
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, workloads.go has %q / %q",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in metrics.go", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, metrics.go has %+v", i, j, d)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in metrics.go", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, metrics.go has %+v", i, j, d)
		}
	}
}

// tiny is a workload small enough to run both passes inside the test
// budget: the lstm over the ring on a handful of samples.
func tiny() *workload {
	return &workload{
		name: "tiny", model: lstmModel,
		data: dataSpec{kind: sequenceData, classes: 3, frames: 12, features: 8,
			trainN: 32, testN: 32, noise: 0.5},
		policy: "32bit", transport: chanFabric, primitive: ring,
		workers: 2, batch: 8, lr: 0.01,
		windows: 3, warm: 1, subSeeds: 2, target: 0.01,
		matmul: matmulShape{4, 32, 128},
	}
}

// TestSmokeRun runs both passes of the tiny workload and checks that
// the emitted metric names are exactly the declared ones.
func TestSmokeRun(t *testing.T) {
	defer func(s, k time.Duration) { sideBudget, kernelBudget = s, k }(sideBudget, kernelBudget)
	sideBudget, kernelBudget = time.Millisecond, time.Millisecond

	w := tiny()
	e := runE2E(w, 3, 0, nil)
	if len(e.failures) > 0 {
		t.Fatalf("untraced run failed: %v", e.failures)
	}
	if e.jobs != w.subSeeds || e.attempted != w.subSeeds*w.jobSteps() || e.failed != 0 {
		t.Errorf("jobs %d attempted %d failed %d", e.jobs, e.attempted, e.failed)
	}
	again := runE2E(w, 3, 0, nil)
	if again.digest != e.digest || again.finalAcc != e.finalAcc || again.stepsToTarget != e.stepsToTarget || again.wirePerStep != e.wirePerStep {
		t.Errorf("same seed, different convergence figures: %+v vs %+v", again, e)
	}
	if other := runE2E(w, 4, 0, nil); other.digest == e.digest {
		t.Error("a different seed produced the same loss digest")
	}
	sameNames(t, "end-to-end", e2eMetrics(e), endToEnd)

	tr := runTraced(w, 3, t.TempDir(), nil)
	if len(tr.failures) > 0 {
		t.Fatalf("traced run failed: %v", tr.failures)
	}
	sameNames(t, "per-layer", tr.metrics, perLayer)
	if tr.untraced.digest != e.digest {
		t.Errorf("traced pass digest %016x, untraced pass %016x", tr.untraced.digest, e.digest)
	}
	if _, err := os.Stat(tr.trace); err != nil {
		t.Errorf("span file: %v", err)
	}
}

func sameNames(t *testing.T, kind string, ms *metricSet, defs []metricDef) {
	t.Helper()
	if miss := ms.missing(); len(miss) > 0 {
		t.Errorf("%s metrics declared but not emitted: %v", kind, miss)
	}
	if len(ms.values) != len(defs) {
		t.Errorf("%d %s metrics emitted, %d declared", len(ms.values), kind, len(defs))
	}
	for name, v := range ms.values {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s metric %s = %v", kind, name, v.Value)
		}
	}
}
