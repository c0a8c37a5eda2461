package cluster

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/health"
	"repro/obs"
)

// This file is the aggregation side of the cluster telemetry plane.
// Every rank publishes a health.TelemetrySnapshot over its heartbeat
// links (Monitor.ReportTelemetry); a TelemetryHub — typically on the
// coordinator — collects the local and remote snapshots through
// Observe, passed as the trainer's parallel.Config.TelemetryObserver
// (which the trainer registers on its monitor again after every
// rejoin), and folds them into cluster-level
// series: per-rank step/loss/phase times with staleness, min/mean/max/
// sum across ranks, per-tensor gradient and quantisation-quality
// aggregates, and a bounded loss trend. The hub serves two read-only
// views, mounted on the obs.Serve mux via Endpoints:
//
//	/cluster/metrics  Prometheus text (float-valued gauges)
//	/cluster/status   JSON (the ClusterStatus shape lpsgd-top polls)
//
// The hub is passive: it never writes to the control plane, so
// attaching it cannot perturb training — the inertness argument stays
// with the producers (parallel.Config.TelemetryEvery).

// lossTrendCap bounds the loss-trend ring in ClusterStatus.
const lossTrendCap = 128

// TensorStatus is one tensor's cluster view in a RankStatus.
type TensorStatus struct {
	Name string `json:"name"`
	// GradL2/GradInf are the rank's aggregated-gradient norms.
	GradL2  jsonFloat `json:"grad_l2"`
	GradInf jsonFloat `json:"grad_inf"`
	// RMSE is the live-measured quantisation error for this tensor.
	RMSE jsonFloat `json:"rmse"`
	// Compression is the raw/wire ratio of the tensor's codec.
	Compression jsonFloat `json:"compression"`
}

// RankStatus is one rank's latest snapshot plus staleness, as served
// by /cluster/status.
type RankStatus struct {
	Rank        int            `json:"rank"`
	Step        int64          `json:"step"`
	Loss        jsonFloat      `json:"loss"`
	ComputeNS   int64          `json:"compute_ns"`
	ExchangeNS  int64          `json:"exchange_ns"`
	StalenessMS int64          `json:"staleness_ms"`
	Tensors     []TensorStatus `json:"tensors,omitempty"`
}

// ClusterStatus is the JSON document /cluster/status serves — the
// whole cluster at a glance, the shape cmd/lpsgd-top renders.
type ClusterStatus struct {
	Policy string `json:"policy"`
	// WorldSize is the session's world size; Reporting counts the ranks
	// a snapshot has arrived from.
	WorldSize int `json:"world"`
	Reporting int `json:"reporting"`
	// MinStep/MaxStep bound the per-rank step indices; their gap is the
	// cluster's step skew.
	MinStep int64 `json:"min_step"`
	MaxStep int64 `json:"max_step"`
	// Loss aggregates across reporting ranks.
	MinLoss  jsonFloat `json:"min_loss"`
	MeanLoss jsonFloat `json:"mean_loss"`
	MaxLoss  jsonFloat `json:"max_loss"`
	// Straggler is the reporting rank with the largest step wall time
	// (-1 until snapshots arrive).
	Straggler int `json:"straggler"`
	// LossTrend is a bounded history of the cluster-mean loss, oldest
	// first — the dashboard sparkline.
	LossTrend []jsonFloat  `json:"loss_trend,omitempty"`
	Ranks     []RankStatus `json:"ranks"`
}

// jsonFloat is a float64 that marshals non-finite values as null
// (JSON has no NaN/Inf literals and encoding/json errors on them; a
// diverged loss must degrade to null, not break the status endpoint).
// Unmarshalling null leaves the zero value, so plain decoding works.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler (null → NaN, so a consumer
// can tell "diverged" from a genuine zero).
func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = jsonFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = jsonFloat(v)
	return nil
}

// rankSlot is one rank's latest snapshot inside the hub.
type rankSlot struct {
	known bool
	snap  health.TelemetrySnapshot
	seen  time.Time
}

// trendPoint is one loss-trend sample (cluster-mean loss at a step).
type trendPoint struct {
	step int64
	loss float64
}

// TelemetryHub aggregates per-rank telemetry snapshots into the
// cluster-level series served by /cluster/metrics and /cluster/status.
// All methods are safe for concurrent use.
type TelemetryHub struct {
	world int

	mu     sync.Mutex
	policy string
	ranks  []rankSlot
	trend  []trendPoint
}

// NewTelemetryHub builds a hub for a world of the given size. policy
// is the session's negotiated policy spelling, echoed in the status
// document so dashboards can label the compression columns; pass ""
// and SetPolicy later when the hub is built before the rendezvous
// settles (the worker CLI mounts its endpoints before joining).
func NewTelemetryHub(world int, policy string) *TelemetryHub {
	if world < 1 {
		world = 1
	}
	return &TelemetryHub{world: world, policy: policy, ranks: make([]rankSlot, world)}
}

// SetPolicy stamps the negotiated policy spelling after the fact.
func (h *TelemetryHub) SetPolicy(policy string) {
	h.mu.Lock()
	h.policy = policy
	h.mu.Unlock()
}

// Observe folds one rank's snapshot into the hub. Out-of-range ranks
// are dropped (a malformed peer must not grow the table).
func (h *TelemetryHub) Observe(rank int, s health.TelemetrySnapshot) {
	if rank < 0 || rank >= h.world {
		return
	}
	now := time.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ranks[rank] = rankSlot{known: true, snap: s, seen: now}
	// Fold the cluster-mean loss into the trend ring, one point per
	// max-step value: the last point is overwritten while stragglers
	// catch up to the frontier, appended once the frontier moves.
	var sum float64
	var n int
	maxStep := int64(0)
	for i := range h.ranks {
		if !h.ranks[i].known {
			continue
		}
		sum += h.ranks[i].snap.Loss
		n++
		if h.ranks[i].snap.Step > maxStep {
			maxStep = h.ranks[i].snap.Step
		}
	}
	if n == 0 {
		return
	}
	p := trendPoint{step: maxStep, loss: sum / float64(n)}
	if len(h.trend) > 0 && h.trend[len(h.trend)-1].step == maxStep {
		h.trend[len(h.trend)-1] = p
		return
	}
	h.trend = append(h.trend, p)
	if len(h.trend) > lossTrendCap {
		h.trend = h.trend[1:]
	}
}

// Status assembles the current cluster view.
func (h *TelemetryHub) Status() ClusterStatus {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := time.Now()
	st := ClusterStatus{
		Policy:    h.policy,
		WorldSize: h.world,
		Straggler: -1,
		MinLoss:   jsonFloat(math.NaN()),
		MeanLoss:  jsonFloat(math.NaN()),
		MaxLoss:   jsonFloat(math.NaN()),
	}
	var lossSum float64
	var slowest time.Duration
	first := true
	for r := range h.ranks {
		slot := &h.ranks[r]
		if !slot.known {
			continue
		}
		s := slot.snap
		rs := RankStatus{
			Rank:        r,
			Step:        s.Step,
			Loss:        jsonFloat(s.Loss),
			ComputeNS:   s.Compute.Nanoseconds(),
			ExchangeNS:  s.Exchange.Nanoseconds(),
			StalenessMS: now.Sub(slot.seen).Milliseconds(),
		}
		for _, t := range s.Tensors {
			rs.Tensors = append(rs.Tensors, TensorStatus{
				Name: t.Name, GradL2: jsonFloat(t.GradL2), GradInf: jsonFloat(t.GradInf),
				RMSE: jsonFloat(t.RMSE), Compression: jsonFloat(t.Compression),
			})
		}
		st.Ranks = append(st.Ranks, rs)
		st.Reporting++
		lossSum += s.Loss
		if first || s.Step < st.MinStep {
			st.MinStep = s.Step
		}
		if s.Step > st.MaxStep {
			st.MaxStep = s.Step
		}
		if first || s.Loss < float64(st.MinLoss) {
			st.MinLoss = jsonFloat(s.Loss)
		}
		if first || s.Loss > float64(st.MaxLoss) {
			st.MaxLoss = jsonFloat(s.Loss)
		}
		if total := s.Compute + s.Exchange; total > slowest {
			slowest, st.Straggler = total, r
		}
		first = false
	}
	if st.Reporting > 0 {
		st.MeanLoss = jsonFloat(lossSum / float64(st.Reporting))
	}
	for _, p := range h.trend {
		st.LossTrend = append(st.LossTrend, jsonFloat(p.loss))
	}
	return st
}

// aggregate is one min/mean/max/sum fold across ranks.
type aggregate struct {
	min, max, sum float64
	n             int
}

func (a *aggregate) add(v float64) {
	if a.n == 0 || v < a.min {
		a.min = v
	}
	if a.n == 0 || v > a.max {
		a.max = v
	}
	a.sum += v
	a.n++
}

func (a *aggregate) mean() float64 {
	if a.n == 0 {
		return math.NaN()
	}
	return a.sum / float64(a.n)
}

// appendFloatSample renders one name{labels} value line, Prometheus
// text form, float-valued (the obs registry is int64-only by design —
// the hub's losses and norms need the full float range, so it renders
// its own exposition).
func appendFloatSample(b []byte, name, labels string, v float64) []byte {
	b = append(b, name...)
	b = append(b, labels...)
	b = append(b, ' ')
	switch {
	case math.IsNaN(v):
		b = append(b, "NaN"...)
	case math.IsInf(v, 1):
		b = append(b, "+Inf"...)
	case math.IsInf(v, -1):
		b = append(b, "-Inf"...)
	default:
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, '\n')
}

func appendAgg(b []byte, name, tensorLabel string, a *aggregate) []byte {
	if a.n == 0 {
		return b
	}
	// Tensor names arrive from peers; unescaped, one could close the
	// label block and forge samples of its own.
	tensorLabel = obs.EscapeLabelValue(tensorLabel)
	for _, agg := range [...]struct {
		key string
		v   float64
	}{{"min", a.min}, {"mean", a.mean()}, {"max", a.max}, {"sum", a.sum}} {
		label := `{agg="` + agg.key + `"}`
		if tensorLabel != "" {
			label = `{tensor="` + tensorLabel + `",agg="` + agg.key + `"}`
		}
		b = appendFloatSample(b, name, label, agg.v)
	}
	return b
}

// WriteMetrics renders the cluster aggregates as Prometheus text:
// per-rank gauges (step, loss, phase seconds, staleness), cluster
// aggregates (min/mean/max/sum across reporting ranks) and per-tensor
// gradient/quantisation series.
func (h *TelemetryHub) WriteMetrics(w io.Writer) error {
	st := h.Status()
	var b []byte
	b = appendFloatSample(b, "lpsgd_cluster_world", "", float64(st.WorldSize))
	b = appendFloatSample(b, "lpsgd_cluster_ranks_reporting", "", float64(st.Reporting))
	b = appendFloatSample(b, "lpsgd_cluster_straggler_rank", "", float64(st.Straggler))

	var loss, step aggregate
	type tensorAgg struct {
		l2, inf, rmse, comp aggregate
	}
	tensors := map[string]*tensorAgg{}
	var names []string
	for _, rs := range st.Ranks {
		rank := strconv.Itoa(rs.Rank)
		b = appendFloatSample(b, "lpsgd_cluster_rank_step", `{rank="`+rank+`"}`, float64(rs.Step))
		b = appendFloatSample(b, "lpsgd_cluster_rank_loss", `{rank="`+rank+`"}`, float64(rs.Loss))
		b = appendFloatSample(b, "lpsgd_cluster_rank_compute_seconds", `{rank="`+rank+`"}`, time.Duration(rs.ComputeNS).Seconds())
		b = appendFloatSample(b, "lpsgd_cluster_rank_exchange_seconds", `{rank="`+rank+`"}`, time.Duration(rs.ExchangeNS).Seconds())
		b = appendFloatSample(b, "lpsgd_cluster_rank_staleness_seconds", `{rank="`+rank+`"}`, float64(rs.StalenessMS)/1e3)
		loss.add(float64(rs.Loss))
		step.add(float64(rs.Step))
		for _, t := range rs.Tensors {
			ta := tensors[t.Name]
			if ta == nil {
				ta = &tensorAgg{}
				tensors[t.Name] = ta
				names = append(names, t.Name)
			}
			ta.l2.add(float64(t.GradL2))
			ta.inf.add(float64(t.GradInf))
			ta.rmse.add(float64(t.RMSE))
			ta.comp.add(float64(t.Compression))
		}
	}
	b = appendAgg(b, "lpsgd_cluster_step", "", &step)
	b = appendAgg(b, "lpsgd_cluster_loss", "", &loss)
	sort.Strings(names)
	for _, name := range names {
		ta := tensors[name]
		b = appendAgg(b, "lpsgd_cluster_grad_l2", name, &ta.l2)
		b = appendAgg(b, "lpsgd_cluster_grad_inf", name, &ta.inf)
		b = appendAgg(b, "lpsgd_cluster_quant_rmse", name, &ta.rmse)
		b = appendAgg(b, "lpsgd_cluster_compression", name, &ta.comp)
	}
	_, err := w.Write(b)
	return err
}

// MetricsHandler serves WriteMetrics over HTTP.
func (h *TelemetryHub) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// A broken scrape socket has nothing to report to.
		h.WriteMetrics(w)
	})
}

// StatusHandler serves the ClusterStatus JSON over HTTP.
func (h *TelemetryHub) StatusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		// A broken scrape socket has nothing to report to.
		enc.Encode(h.Status())
	})
}

// Endpoints returns the hub's obs.Serve mounts: /cluster/metrics and
// /cluster/status.
func (h *TelemetryHub) Endpoints() []obs.Endpoint {
	return []obs.Endpoint{
		{Pattern: "/cluster/metrics", Handler: h.MetricsHandler()},
		{Pattern: "/cluster/status", Handler: h.StatusHandler()},
	}
}
