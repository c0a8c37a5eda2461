package parallel

import (
	"math"
	"strconv"
	"time"

	"repro/comm"
	"repro/health"
	"repro/obs"
	"repro/quant"
)

// WireBytes returns the cumulative data-mesh payload bytes this
// process's ranks have sent over every fabric incarnation of the run —
// the number EpochStats.WireBytes records and the
// lpsgd_wire_tx_bytes_total metric exports, from one counter. statsMu
// covers the fabric swap a rejoin performs, so a concurrent metrics
// scrape never reads a half-retired incarnation.
func (t *Trainer) WireBytes() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.wireBase + t.fabric.TotalBytes()
}

// ControlBytes returns the cumulative health-plane bytes this rank has
// written (0 outside cluster mode) — the lpsgd_control_bytes_total
// metric, kept beside WireBytes so the two wire namespaces are read
// through one surface and can never disagree with /metrics.
func (t *Trainer) ControlBytes() int64 {
	t.statsMu.Lock()
	m := t.monitor
	t.statsMu.Unlock()
	if m == nil {
		return 0
	}
	return m.ControlBytes()
}

// peerTraffic reads the per-peer link accounting of the current fabric
// incarnation (zero when the fabric does not expose it).
func (t *Trainer) peerTraffic(p int) comm.PeerTraffic {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if pa, ok := t.fabric.(comm.PeerAccounter); ok {
		return pa.PeerTraffic(p)
	}
	return comm.PeerTraffic{}
}

// monitorPhi samples the health plane's suspicion level for a peer in
// milli-phi (0 when no monitor is attached).
func (t *Trainer) monitorPhi(p int) int64 {
	t.statsMu.Lock()
	m := t.monitor
	t.statsMu.Unlock()
	if m == nil {
		return 0
	}
	return int64(m.Phi(p) * 1000)
}

// registerMetrics declares the trainer's series on Config.Metrics. A
// nil registry makes every call a no-op (nil-safe handles), so the
// method runs unconditionally. Callback-backed series read through the
// trainer's guarded accessors, which keeps them correct across the
// fabric and monitor swaps of elastic rejoin rounds without any
// re-registration.
func (t *Trainer) registerMetrics() {
	m := t.metrics
	m.Func("lpsgd_wire_tx_bytes_total",
		"Cumulative data-mesh payload bytes sent by this process's ranks (all fabric incarnations).",
		t.WireBytes)
	m.Func("lpsgd_control_bytes_total",
		"Cumulative health-plane control bytes written by this rank.",
		t.ControlBytes)
	m.Func("lpsgd_steps_total", "Completed synchronous steps.", t.currentStep)
	m.Gauge("lpsgd_world_size", "Configured world size K.").Set(int64(t.cfg.Workers))
	m.Gauge("lpsgd_rank", "Lowest rank this process drives.").Set(int64(t.local[0].rank))
	m.Gauge("lpsgd_policy_wire_bytes",
		"Encoded bytes one local gradient set occupies under the policy.").Set(t.plan.WireBytes())
	m.Gauge("lpsgd_policy_raw_bytes",
		"Raw fp32 bytes of one local gradient set (wire/raw is the achieved compression ratio).").Set(t.plan.RawBytes())
	// Step-time histograms: 1µs..~4s exponential nanosecond buckets.
	buckets := obs.ExpBuckets(1000, 4, 12)
	t.computeHist = m.Histogram("lpsgd_step_compute_ns",
		"Per-step forward+backward wall time of the local ranks.", buckets)
	t.exchangeHist = m.Histogram("lpsgd_step_exchange_ns",
		"Per-step gradient-exchange wall time of the local ranks.", buckets)
	// Per-peer link traffic and suspicion, cluster mode only (the
	// in-process fabrics have no peer links worth splitting).
	if t.cfg.Fabric != nil {
		for p := 0; p < t.cfg.Workers; p++ {
			if p == t.local[0].rank {
				continue
			}
			lbl := obs.Label{Key: "peer", Value: strconv.Itoa(p)}
			m.Func("lpsgd_peer_tx_bytes_total", "Payload bytes sent to the peer.",
				func() int64 { return t.peerTraffic(p).TxBytes }, lbl)
			m.Func("lpsgd_peer_rx_bytes_total", "Payload bytes received from the peer.",
				func() int64 { return t.peerTraffic(p).RxBytes }, lbl)
			m.Func("lpsgd_peer_tx_frames_total", "Frames sent to the peer.",
				func() int64 { return t.peerTraffic(p).TxFrames }, lbl)
			m.Func("lpsgd_peer_rx_frames_total", "Frames received from the peer.",
				func() int64 { return t.peerTraffic(p).RxFrames }, lbl)
			m.Func("lpsgd_health_phi_milli", "Failure-detector suspicion level for the peer, x1000.",
				func() int64 { return t.monitorPhi(p) }, lbl)
		}
	}
	// Bridge the tracer's spans into per-phase /metrics histograms.
	if t.tracer != nil && t.metrics != nil {
		t.tracer.SetPhaseHistograms(obs.AttachHistograms(m, "lpsgd_phase_ns",
			"Traced span durations by step phase.", buckets))
	}
	t.beatHist = m.Histogram("lpsgd_heartbeat_gap_ns",
		"Gap between consecutive heartbeats from any peer.",
		obs.ExpBuckets(1_000_000, 2, 14))
	// Convergence-telemetry gauges, sampled every TelemetryEvery steps.
	// The registry is int64-only by design, so the floats are published
	// fixed-point (the wire snapshot keeps full float64 precision).
	if t.cfg.TelemetryEvery > 0 {
		t.teleStepG = m.Gauge("lpsgd_telemetry_step",
			"Step index of the latest convergence-telemetry sample.")
		t.lossGauge = m.Gauge("lpsgd_telemetry_loss_micro",
			"Sampled mean minibatch loss of the local ranks, x1e6.")
		for _, spec := range t.specs {
			lbl := obs.Label{Key: "tensor", Value: spec.Name}
			t.gradL2G = append(t.gradL2G, m.Gauge("lpsgd_telemetry_grad_l2_micro",
				"Sampled aggregated-gradient L2 norm, x1e6.", lbl))
			t.gradInfG = append(t.gradInfG, m.Gauge("lpsgd_telemetry_grad_inf_micro",
				"Sampled aggregated-gradient max-absolute value, x1e6.", lbl))
			t.rmseG = append(t.rmseG, m.Gauge("lpsgd_telemetry_quant_rmse_nano",
				"Live-measured quantisation RMSE against the negotiated codec, x1e9.", lbl))
			t.compG = append(t.compG, m.Gauge("lpsgd_telemetry_compression_milli",
				"Achieved raw/wire compression ratio of the tensor's codec, x1000.", lbl))
		}
	}
}

// attachMonitor registers the trainer's hooks on the current monitor:
// the verdict handler that aborts the current fabric — interrupting a
// step blocked in it — then Config.HealthHandler, the heartbeat
// histogram, the tracer's verdict span and the telemetry observer.
// Called at construction and again after every rejoin round
// (replacement monitors start bare), so each handler aborts the
// fabric that was current when it was registered.
func (t *Trainer) attachMonitor() {
	if t.monitor == nil {
		return
	}
	fabric := t.fabric
	t.monitor.OnVerdict(func(err error) { abortFabric(fabric, err) })
	t.monitor.OnVerdict(t.cfg.HealthHandler)
	if t.metrics != nil {
		h := t.beatHist
		t.monitor.OnHeartbeat(func(_ int, gap time.Duration) { h.Observe(int64(gap)) })
	}
	if t.tracer != nil {
		tr := t.tracer
		rank := t.local[0].rank
		t.monitor.OnVerdict(func(error) {
			now := tr.Now()
			tr.Record(rank, obs.PhaseControl, "verdict", -1, 0, now, 0)
		})
	}
	if t.cfg.TelemetryObserver != nil {
		t.monitor.OnTelemetry(t.cfg.TelemetryObserver)
	}
}

// captureTelemetry samples the convergence signals of the step that
// just completed: the mean local loss and timings, each tensor's
// aggregated gradient norms, and the distortion the negotiated codec
// would introduce on exactly those gradients (quant.MeasureError with a
// step-keyed seed, so the sample is deterministic per step). It runs
// on the step driver after the worker goroutines joined. The 1/K
// average happens in the optimiser's update pass (nn.SGD.StepScaled),
// which stores the averaged gradient back, so what it reads is the
// averaged gradient, stable until the next step's Backward (ZeroGrads
// only marks it pending-zero; the memory changes when Backward writes
// the next gradient). It
// probes the codecs over a scratch copy, so training state is
// bit-for-bit untouched and no byte reaches the data mesh; the
// snapshot travels the control plane only (ControlBytes).
func (t *Trainer) captureTelemetry(step int64, loss float64) {
	r := t.local[0]
	params := r.net.Params()
	tensors := make([]health.TensorTelemetry, 0, len(params))
	for i, p := range params {
		src := p.Grad.Data
		l2, inf := quant.GradNorms(src)
		if cap(t.teleScratch) < len(src) {
			t.teleScratch = make([]float32, len(src))
		}
		scratch := t.teleScratch[:len(src)]
		copy(scratch, src)
		seed := t.cfg.Seed ^ uint64(step)*0x9E3779B97F4A7C15 ^ uint64(i)<<32
		es := quant.MeasureError(t.plan.CodecFor(i), scratch, t.specs[i].Wire, 1, seed)
		tensors = append(tensors, health.TensorTelemetry{
			Name: p.Name, GradL2: l2, GradInf: inf,
			RMSE: es.RMSE, Compression: es.CompressionRatio,
		})
		t.gradL2G[i].Set(scaledInt(l2, 1e6))
		t.gradInfG[i].Set(scaledInt(inf, 1e6))
		t.rmseG[i].Set(scaledInt(es.RMSE, 1e9))
		t.compG[i].Set(scaledInt(es.CompressionRatio, 1e3))
	}
	t.teleStepG.Set(step)
	t.lossGauge.Set(scaledInt(loss, 1e6))
	snap := health.TelemetrySnapshot{
		Step: step, Loss: loss, Compute: r.compute, Exchange: r.exchange,
		Tensors: tensors,
	}
	switch {
	case t.monitor != nil:
		// The only error is a tensor inventory past the wire bounds,
		// which NewTrainer already rejected.
		_ = t.monitor.ReportTelemetry(snap)
	case t.cfg.TelemetryObserver != nil:
		// No control plane (single-process mode): feed the observer
		// directly so a local hub still sees this rank.
		t.cfg.TelemetryObserver(t.cfg.Rank, snap)
	}
}

// scaledInt converts a telemetry float to a fixed-point gauge value,
// clamping non-finite values to 0 (the int64 registry cannot carry
// them; the wire snapshot keeps the full float64).
func scaledInt(v, scale float64) int64 {
	v *= scale
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return int64(v)
}
