// Package parallel implements the paper's Algorithm 1: synchronous
// data-parallel SGD across K workers (simulated GPUs), each holding a
// full model replica, computing gradients over its shard of the global
// minibatch, and exchanging them through a communication primitive
// under a precision policy (Config.Policy — per-tensor codecs via
// quant.NewPlan).
//
// Workers are real goroutines moving real encoded bytes through
// repro/comm; replicas stay bit-identical because every worker adopts
// the same aggregated wire bytes. This is the engine behind the
// reproduction's accuracy experiments (paper Figure 5).
//
// In cluster mode (Config.Fabric/Rank) the trainer is one rank of a
// multi-process world and cooperates with the health plane
// (Config.Monitor, repro/health): a peer-death verdict aborts the
// fabric through the verdict handler the trainer registers and
// surfaces from Run as health.ErrPeerDead, Config.StepDeadline bounds
// a wedged step with ErrStepDeadline through one watchdog timer per
// trainer that aborts the fabric on expiry, and StepStats attributes
// each synchronous barrier to its slowest rank from timings the
// heartbeats carry. Guarded or not, a step is driven from the goroutine
// that called Run; no goroutine watches beside it.
//
// The sources follow those seams: config.go holds Config and the
// result types, engine.go the Trainer, its step and evaluation,
// resume.go checkpoints, elastic snapshots and rejoin rounds, and
// observe.go the metrics, health-plane hooks and telemetry sampling.
package parallel

import (
	"fmt"
	"time"

	"repro/comm"
	"repro/elastic"
	"repro/health"
	"repro/nn"
	"repro/obs"
	"repro/quant"
)

// Config describes a data-parallel training run.
type Config struct {
	// Workers is K, the number of simulated GPUs.
	Workers int
	// Policy is the precision policy: base codec, small-matrix
	// exemption target and per-tensor pattern rules (see quant.Policy
	// and quant.ParsePolicy). Nil means full precision.
	Policy *quant.Policy
	// Primitive selects MPI reduce-and-broadcast or the NCCL ring; both
	// carry every tensor under the policy's codec (see comm).
	Primitive comm.Primitive
	// BatchSize is the global minibatch size, sharded over workers.
	BatchSize int
	// Epochs is the number of passes over the training set.
	Epochs int
	// Schedule supplies the learning rate per epoch.
	Schedule nn.Schedule
	// Momentum is the SGD momentum (the paper's default is 0.9).
	Momentum float32
	// WeightDecay is the L2 regularisation coefficient (0 disables it).
	WeightDecay float32
	// UseTCP moves gradients over real loopback TCP sockets instead of
	// in-process channels — same aggregation algorithms, real kernel
	// boundary (see comm.TCPFabric). Ignored when Fabric is set.
	UseTCP bool
	// Fabric supplies an externally established transport — typically
	// the mesh a cluster rendezvous built (repro/cluster). When set,
	// the trainer runs as the single rank Rank of a Workers-sized
	// world: it holds one local replica, drives one worker goroutine,
	// and exchanges gradients with the other ranks' processes over the
	// mesh. Fabric.K() must equal Workers. The trainer takes ownership
	// and closes the fabric on Close.
	Fabric comm.Transport
	// Rank is this process's rank in [0, Workers) when Fabric is set;
	// ignored otherwise.
	Rank int
	// Monitor attaches the cluster's health plane (see repro/health and
	// cluster.Session.Monitor). The trainer reports its per-step
	// timings to it (straggler telemetry piggybacks on heartbeats),
	// folds the peers' reports into StepStats, and closes the monitor —
	// whose parting bye distinguishes this rank's clean shutdown from a
	// death — in Close. A death verdict fails the next step before it
	// starts; during a step, the verdict handler the trainer registers
	// aborts the fabric, so the blocked exchange unwinds and Run returns
	// the monitor's Verdict() value. Nil outside cluster mode.
	Monitor *health.Monitor
	// HealthHandler is invoked with the death verdict whenever the
	// attached health plane declares a peer dead — once per verdict,
	// which in an elastic session can mean once per repaired death.
	// The trainer registers it on Monitor at construction and again on
	// every replacement monitor a rejoin round installs, so the
	// callback keeps firing across repairs (registering directly on
	// the original monitor would go dark after the first one).
	HealthHandler func(error)
	// Elastic attaches the session's rejoin controller (typically the
	// cluster.Session itself — see repro/elastic). When set, a
	// health-plane death verdict becomes a recoverable event: instead
	// of surfacing health.ErrPeerDead, the trainer quiesces at the step
	// barrier its abort unwound to, asks the controller to repair the
	// world (re-rendezvous, replacement admission, state transfer),
	// swaps in the rebuilt fabric and monitor, and resumes training at
	// the agreed step. Only meaningful in cluster mode (Fabric set);
	// nil keeps a death verdict fatal.
	Elastic elastic.Rejoiner
	// MaxRejoins caps how many rejoin rounds this trainer tolerates
	// before a further death verdict is surfaced (0 means
	// elastic.DefaultMaxRejoins; negative means unlimited).
	MaxRejoins int
	// StepDeadline bounds the wall time of one synchronous step
	// (compute + exchange); 0 disables it. A watchdog timer, one per
	// trainer and reset every step, aborts the fabric on expiry, and Run
	// returns an ErrStepDeadline — the straggler guard rail for a peer
	// that is alive enough to heartbeat but too slow (or wedged) to ever
	// finish its exchange. The abort interrupts closable fabrics (TCP,
	// cluster mesh); the in-process channel fabric cannot be
	// interrupted, so its step finishes and then reports the deadline.
	StepDeadline time.Duration
	// ClipNorm bounds the global gradient L2 norm after aggregation
	// (0 disables clipping). CNTK's recurrent recipes clip gradients;
	// clipping after the exchange keeps replicas bit-identical.
	ClipNorm float32
	// Seed fixes all randomness (init, shuffling, stochastic rounding).
	Seed uint64
	// EvalEvery evaluates test accuracy every this many epochs
	// (default 1).
	EvalEvery int
	// Tracer, when set, receives step-phase spans: a compute and a
	// barrier span per local rank per step from the trainer itself, plus
	// the quantise/encode/transfer/decode fine structure from the
	// reducer (its SetTracer). Nil disables tracing; the training
	// trajectory and wire traffic are bit-identical either way (pinned
	// by TestObsDisabledDigestParity).
	Tracer *obs.Tracer
	// Metrics, when set, registers the trainer's operational series:
	// cumulative wire and control bytes, per-peer link traffic, step
	// counters and phase histograms, health phi per peer. Nil disables
	// registration; all instruments are obs nil-safe.
	Metrics *obs.Registry
	// TelemetryEvery samples convergence telemetry every this many
	// completed steps (0 disables it): the step's mean loss, each
	// tensor's aggregated-gradient L2/inf norms, and the live
	// quantisation RMSE/compression of the negotiated codecs
	// (quant.MeasureError over a scratch copy of the gradients — the
	// training bits are untouched; digest and TCP byte parity with
	// telemetry on are pinned by test). Samples feed the registry's
	// lpsgd_telemetry_* gauges and, in cluster mode, ship to every peer
	// over the heartbeat control links (Monitor.ReportTelemetry, bytes
	// under ControlBytes) for cluster-wide aggregation by
	// cluster.TelemetryHub. Negative is rejected.
	TelemetryEvery int
	// TelemetryObserver, when set with a Monitor attached, receives
	// every telemetry snapshot the control plane sees — the local
	// rank's own and each peer's (cluster.TelemetryHub.Observe is the
	// intended consumer). The trainer registers it on the monitor at
	// construction and again on every replacement monitor a rejoin
	// round installs, the same liveness contract as HealthHandler.
	TelemetryObserver func(peer int, s health.TelemetrySnapshot)
}

func (c *Config) fillDefaults() error {
	if c.Workers <= 0 {
		return fmt.Errorf("parallel: Workers must be positive, got %d", c.Workers)
	}
	if c.BatchSize < c.Workers {
		return fmt.Errorf("parallel: batch %d smaller than %d workers", c.BatchSize, c.Workers)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("parallel: Epochs must be positive")
	}
	if c.Primitive != comm.MPI && c.Primitive != comm.NCCL {
		return fmt.Errorf("parallel: unknown primitive %d", c.Primitive)
	}
	// Defaults are filled into a copy, never through the caller's
	// pointer: the same policy value may configure several trainers.
	p := quant.Policy{}
	if c.Policy != nil {
		p = *c.Policy
	}
	if p.Base == nil {
		p.Base = quant.FP32{}
	}
	if p.MinFrac <= 0 {
		p.MinFrac = quant.DefaultMinFrac
	}
	c.Policy = &p
	// No Name() round-trip validation here: the engine happily trains
	// custom codecs whose names the quant grammar cannot spell (they
	// only break where names cross a wire — the lpsgd facade and the
	// cluster rendezvous validate at those boundaries).
	if c.Schedule == nil {
		c.Schedule = nn.ConstantLR(0.1)
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.TelemetryEvery < 0 {
		return fmt.Errorf("parallel: TelemetryEvery must be non-negative, got %d", c.TelemetryEvery)
	}
	return nil
}

// EpochStats records one epoch of training.
type EpochStats struct {
	Epoch        int
	TrainLoss    float64
	TestAccuracy float64 // top-1; negative when not evaluated this epoch
	TestTop5     float64 // top-5; negative when not evaluated this epoch
	LR           float32
	WireBytes    int64 // cumulative fabric bytes at epoch end
	Elapsed      time.Duration
	// SlowestRank is the rank most often attributed as the epoch's
	// straggler — the peer gating the synchronous barrier (-1 when no
	// attribution was possible). In cluster mode the attribution folds
	// in the peers' step timings carried by the health plane's
	// heartbeats.
	SlowestRank int
}

// StepStats is the straggler report of one synchronous step: per-rank
// compute and exchange wall time, and which rank gated the barrier.
// The local process's ranks are measured directly; in cluster mode the
// other ranks' entries come from the step reports their heartbeats
// carried (one heartbeat interval stale at worst), with Known marking
// the ranks a timing exists for.
type StepStats struct {
	// Step counts completed synchronous steps, 1-based.
	Step int64
	// Compute[r] and Exchange[r] are rank r's forward+backward and
	// gradient-exchange wall times for its most recent reported step.
	Compute  []time.Duration
	Exchange []time.Duration
	// Known[r] reports whether rank r's timings are populated.
	Known []bool
	// Slowest is the known rank with the largest compute time, -1 when
	// nothing is known. Compute is the discriminating signal: the
	// exchange is a blocking collective, so a fast rank's exchange time
	// is mostly spent waiting for the straggler and every rank's
	// compute+exchange sum comes out nearly equal. Attributing by
	// compute names the rank that arrived at the barrier last — the
	// same rank the discrete-event simulator (repro/sim) charges with
	// gating the step.
	Slowest int
}

// ErrStepDeadline is returned by Run when one synchronous step exceeds
// Config.StepDeadline: some participant — possibly this one — was too
// slow for the configured bound, and the fabric was aborted so every
// local exchange unblocked.
type ErrStepDeadline struct {
	// Rank is the local rank that observed the expiry.
	Rank int
	// Step is the 1-based index of the step that timed out.
	Step int64
	// Deadline is the configured bound.
	Deadline time.Duration
}

// Error implements error.
func (e ErrStepDeadline) Error() string {
	return fmt.Sprintf("parallel: rank %d: step %d exceeded the %v step deadline",
		e.Rank, e.Step, e.Deadline)
}

// History is the full record of a run.
type History struct {
	Config Config
	Epochs []EpochStats
	// FinalAccuracy is the last measured test accuracy.
	FinalAccuracy float64
	// BestAccuracy is the highest test accuracy seen.
	BestAccuracy float64
	// TotalWireBytes is the fabric traffic of the whole run.
	TotalWireBytes int64
}

// EpochsToReach returns the first epoch (1-based) whose test accuracy
// meets target, or -1 if never reached — the paper's convergence-speed
// metric.
func (h *History) EpochsToReach(target float64) int {
	for _, e := range h.Epochs {
		if e.TestAccuracy >= target {
			return e.Epoch + 1
		}
	}
	return -1
}
