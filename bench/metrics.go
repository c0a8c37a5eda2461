package main

import "regexp"

// metricDef names one metric exactly as BENCHMARK.json does; the test
// asserts the two lists are equal in both directions.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median a change may worsen it by
}

// nameRE is the contract's name alphabet.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// endToEnd are the metrics a user of the system sees; emitted by the
// untraced run (--trace 0). The contract wants metrics that are never 0,
// so the issue's failed_share lives in the result's attempted/failed
// counts (and the printed report) instead of in this list.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s", "higher", 0.20},
	{"step_ms_p50", "ms", "lower", 0.20},
	{"wire_bytes_per_step", "bytes", "lower", 0.001},
	{"allocs_per_step", "count", "lower", 0.02},
	{"time_to_target_s", "s", "lower", 0.25},
	{"final_test_accuracy", "fraction", "higher", 0.08},
	{"setup_s", "s", "lower", 0.25},
}

// codecsMeasured are the codecs quant.encode_mbps / decode_mbps sweep at
// the workload's largest tensor.
var codecsMeasured = []string{"32bit", "qsgd4b512", "qsgd8b512", "1bit", "topk0.01"}

// obsPhases are the tracer phases reported as shares of the step.
var obsPhases = []string{"compute", "quantise", "encode", "transfer", "decode", "barrier"}

// perLayer are the single-layer metrics of the traced run (--trace 1),
// prefixed with the module they measure. README.md says which
// end-to-end metric each should move, and where.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"data.gather_us", "us", "lower", 0},
		{"tensor.matmul_gflops", "GFLOP/s", "higher", 0},
		{"tensor.im2col_us", "us", "lower", 0},
		{"nn.forward_us", "us", "lower", 0},
		{"nn.backward_us", "us", "lower", 0},
		{"nn.optimizer_us", "us", "lower", 0},
		{"nn.allocs_per_fwdbwd", "count", "lower", 0},
	}
	for _, c := range codecsMeasured {
		m = append(m, metricDef{"quant.encode_mbps." + c, "MB/s", "higher", 0})
	}
	for _, c := range codecsMeasured {
		m = append(m, metricDef{"quant.decode_mbps." + c, "MB/s", "higher", 0})
	}
	m = append(m,
		metricDef{"quant.plan_encode_us", "us", "lower", 0},
		metricDef{"quant.plan_decode_us", "us", "lower", 0},
		metricDef{"quant.compression_ratio", "ratio", "higher", 0},
		metricDef{"quant.rel_rmse", "ratio", "lower", 0},
	)
	for _, prim := range []primitiveKind{reduceBroadcast, ring} {
		for _, tr := range []transportKind{chanFabric, tcpFabric} {
			m = append(m, metricDef{"comm.exchange_us." + string(prim) + "." + string(tr), "us", "lower", 0})
		}
	}
	for _, tr := range []transportKind{chanFabric, tcpFabric} {
		m = append(m, metricDef{"comm.bulk_mbps." + string(tr), "MB/s", "higher", 0})
	}
	for _, tr := range []transportKind{chanFabric, tcpFabric} {
		m = append(m, metricDef{"comm.small_exchange_us." + string(tr), "us", "lower", 0})
	}
	m = append(m,
		metricDef{"comm.exchange_allocs", "count", "lower", 0},
		metricDef{"comm.exchange_alloc_bytes", "bytes", "lower", 0},
		metricDef{"parallel.step_ms_p95", "ms", "lower", 0},
		metricDef{"parallel.compute_ms", "ms", "lower", 0},
		metricDef{"parallel.exchange_ms", "ms", "lower", 0},
		metricDef{"parallel.unhidden_exchange_share", "fraction", "lower", 0},
		metricDef{"parallel.engine_overhead_us", "us", "lower", 0},
		metricDef{"parallel.alloc_bytes_per_step", "bytes", "lower", 0},
		metricDef{"parallel.gc_cycles_per_1k_steps", "count", "lower", 0},
		metricDef{"parallel.gc_pause_ms_per_1k_steps", "ms", "lower", 0},
		metricDef{"parallel.peak_rss_mb", "MB", "lower", 0},
		metricDef{"parallel.steps_to_target", "count", "lower", 0},
		metricDef{"parallel.speedup_vs_k1", "ratio", "higher", 0},
		metricDef{"parallel.eval_ms", "ms", "lower", 0},
		metricDef{"parallel.replay_gap_permille", "permille", "lower", 0},
		metricDef{"obs.trace_overhead_permille", "permille", "lower", 0},
		metricDef{"obs.spans_per_step", "count", "lower", 0},
	)
	for _, ph := range obsPhases {
		m = append(m, metricDef{"obs.phase_permille." + ph, "permille", "lower", 0})
	}
	m = append(m,
		metricDef{"obs.coverage_permille", "permille", "higher", 0},
		metricDef{"elastic.save_state_ms", "ms", "lower", 0},
		metricDef{"elastic.load_state_ms", "ms", "lower", 0},
		metricDef{"elastic.snapshot_bytes", "bytes", "lower", 0},
	)
	return m
}

// measured is one metric value with its unit, in the result's shape.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values against a definition list and knows which
// names are still missing.
type metricSet struct {
	defs   []metricDef
	values map[string]measured
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: make(map[string]measured, len(defs))}
}

// set records a value; an undeclared name is a bug in the benchmark.
func (s *metricSet) set(name string, v float64) {
	for _, d := range s.defs {
		if d.name == name {
			s.values[name] = measured{Value: v, Unit: d.unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in metrics.go")
}

// missing lists declared names without a value.
func (s *metricSet) missing() []string {
	var out []string
	for _, d := range s.defs {
		if _, ok := s.values[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}
