// Package lpsgd is the public facade of the low-precision SGD library:
// one import, a functional-options constructor, and sensible defaults
// for everything the paper tuned. It wraps the building blocks —
// repro/quant (codecs and policies), repro/comm (fabrics and
// reducers), repro/parallel (the synchronous data-parallel engine)
// and repro/health (the cluster's failure-detection plane) — so
// applications select precision by one policy string and a transport
// by constant instead of hand-wiring configs.
//
// The precision surface is the policy grammar (quant.ParsePolicy):
// one string naming the base codec, the small-matrix exemption target,
// and per-tensor pattern rules. WithPolicy is the primary option — a
// bare codec name is a valid policy — and WithCodec /
// WithMinQuantisedFraction are shorthands editing one component of the
// same working policy:
//
//	trainer, err := lpsgd.NewTrainer(model,
//	    lpsgd.WithPolicy("qsgd4b512;embedding=topk0.001;*.b=32bit"),
//	    lpsgd.WithWorkers(8),
//	    lpsgd.WithTransport(lpsgd.TCP),
//	    lpsgd.WithEpochs(20),
//	)
//	history, err := trainer.Run(train, test)
//
// Codec names go through quant.Parse, which derives bits, bucket size,
// normalisation and level scheme from the name itself ("qsgd4b512",
// "1bit*64", "topk0.01", ...). Over the TCP transport every gradient
// message is a self-describing quant frame, so peers decode with no
// out-of-band codec agreement.
//
// Training can also span OS processes and machines: WithCluster joins
// a repro/cluster rendezvous, negotiates the precision policy with the
// peers (WithAcceptedPolicies, floored at "32bit") and trains this rank
// of the world over the dialled TCP mesh:
//
//	trainer, err := lpsgd.NewTrainer(model,
//	    lpsgd.WithCluster("10.0.0.1:7070", rank, 3),
//	    lpsgd.WithAcceptedPolicies("qsgd4b512;*.b=32bit", "qsgd4b512"),
//	    lpsgd.WithHeartbeat(250*time.Millisecond, 2*time.Second),
//	)
//
// Cluster sessions carry a health plane (repro/health): heartbeats on
// dedicated control links, a phi-or-deadline failure detector, and a
// coordinated abort, so a rank dying mid-epoch surfaces on every
// survivor as the same typed health.ErrPeerDead from Run — within
// roughly the heartbeat timeout — instead of hanging the exchange.
// WithHeartbeat tunes it, WithHealthHandler observes the verdict,
// WithStepDeadline bounds one synchronous step, and
// Trainer.StepStats reports per-rank step timings with slowest-rank
// attribution (telemetry that rides on the heartbeats themselves).
//
// See cmd/lpsgd-worker for the ready-made per-rank binary, including
// the exit-code contract external supervisors can restart on.
package lpsgd

import (
	"fmt"
	"time"

	"repro/cluster"
	"repro/comm"
	"repro/elastic"
	"repro/health"
	"repro/nn"
	"repro/obs"
	"repro/parallel"
	"repro/quant"
	"repro/rng"
)

// BuildFunc constructs one model replica; it must be deterministic in
// its RNG argument so all replicas start bit-identical.
type BuildFunc = func(r *rng.RNG) *nn.Network

// Trainer is the synchronous data-parallel training engine (see
// repro/parallel for Run, Evaluate, checkpointing and sync inspection).
type Trainer = parallel.Trainer

// History is the per-epoch record a Run returns.
type History = parallel.History

// Primitive selects the aggregation algorithm.
type Primitive = comm.Primitive

// Aggregation primitives, re-exported from repro/comm. Both carry
// every tensor under the policy's codec.
const (
	// MPI is reduce-and-broadcast: each contribution and each stripe's
	// sum is quantised once.
	MPI = comm.MPI
	// NCCL is the ring allreduce: each hop re-quantises the partial sum
	// it forwards (see the comm package documentation).
	NCCL = comm.NCCL
)

// Transport selects the byte-moving substrate beneath the aggregation
// primitive.
type Transport int

const (
	// InProcess moves gradients over in-process channels — the fast
	// path standing in for PCIe/NVLink peer-to-peer copies.
	InProcess Transport = iota
	// TCP moves gradients over real loopback sockets with
	// self-describing framed payloads — the host-mediated MPI path.
	TCP
)

// String names the transport.
func (t Transport) String() string {
	if t == TCP {
		return "TCP"
	}
	return "InProcess"
}

// config accumulates options before they are handed to the engine.
type config struct {
	cfg parallel.Config
	// policy is the working precision policy the codec-shaped options
	// edit component-wise; nil means "never touched" and lets the
	// engine default to full precision.
	policy  *quant.Policy
	lr      float32
	err     error
	cluster *clusterJoin
	accept  []string
	// handler is the WithHealthHandler callback, registered on the
	// session's monitor once one exists.
	handler func(error)
}

// editPolicy returns the working policy, creating the default
// (full-precision base, DefaultMinFrac, no rules) on first use.
func (c *config) editPolicy() *quant.Policy {
	if c.policy == nil {
		c.policy = quant.NewPolicy(nil)
	}
	return c.policy
}

// clusterJoin is a pending or pre-established cluster membership.
type clusterJoin struct {
	addr        string
	rank, world int
	timeout     time.Duration
	health      health.Config
	elastic     elastic.Config
	session     *cluster.Session
}

// Option mutates the trainer configuration; invalid options surface
// their error from NewTrainer, not at the call site.
type Option func(*config)

// WithPolicy selects the complete precision policy by name via
// quant.ParsePolicy — base codec, small-matrix exemption target and
// per-tensor pattern rules in one string:
//
//	lpsgd.WithPolicy("qsgd4b512")                          // plain codec
//	lpsgd.WithPolicy("qsgd4b512;minfrac=0.95")             // tighter exemption
//	lpsgd.WithPolicy("qsgd4b512;embedding=topk0.001;*.b=32bit")
//
// This is the primary precision option; WithCodec and
// WithMinQuantisedFraction are shorthands that edit one component of
// the same policy. WithPolicy replaces the whole working policy, so
// codec-shaped options given before it are discarded and ones given
// after it refine it.
func WithPolicy(name string) Option {
	return func(c *config) {
		p, err := quant.ParsePolicy(name)
		if err != nil {
			c.fail(err)
			return
		}
		c.policy = p
	}
}

// WithPolicyValue supplies an already-constructed policy. Like
// WithCodecValue it validates at option-apply time that the policy
// round-trips its own canonical name — the invariant cluster
// negotiation and framed decoding depend on.
func WithPolicyValue(p *quant.Policy) Option {
	return func(c *config) {
		if p == nil {
			c.fail(fmt.Errorf("lpsgd: nil policy"))
			return
		}
		if err := p.Validate(); err != nil {
			c.fail(fmt.Errorf("lpsgd: %w", err))
			return
		}
		// Later options (WithCodec, WithMinQuantisedFraction) edit the
		// working policy; a copy keeps those edits off the caller's
		// object.
		cp := *p
		c.policy = &cp
	}
}

// WithCodec selects the gradient codec by name via quant.Parse
// ("32bit", "qsgd4b512", "1bit*64", "topk0.01", ...). It edits the
// base codec of the working policy, preserving any exemption target or
// rules set by other options; WithPolicy subsumes it.
func WithCodec(name string) Option {
	return func(c *config) {
		codec, err := quant.Parse(name)
		if err != nil {
			c.fail(err)
			return
		}
		c.editPolicy().Base = codec
	}
}

// WithCodecValue supplies an already-constructed codec as the working
// policy's base. The codec's Name() must round-trip through quant.Parse
// to the same canonical spelling — that name is what travels in frame
// headers and cluster negotiation, so a codec that cannot be
// reconstructed from it would decode wrongly (or not at all) on every
// peer; such codecs are rejected here, at option-apply time.
func WithCodecValue(codec quant.Codec) Option {
	return func(c *config) {
		if codec == nil {
			c.fail(fmt.Errorf("lpsgd: nil codec"))
			return
		}
		name := codec.Name()
		rt, err := quant.Parse(name)
		if err != nil {
			c.fail(fmt.Errorf("lpsgd: codec name %q does not round-trip through quant.Parse (frames and negotiation could not reconstruct it): %w", name, err))
			return
		}
		if rt.Name() != name {
			c.fail(fmt.Errorf("lpsgd: codec name %q re-parses as %q; peers would reconstruct a different codec", name, rt.Name()))
			return
		}
		c.editPolicy().Base = codec
	}
}

// WithWorkers sets K, the number of simulated GPUs.
func WithWorkers(k int) Option {
	return func(c *config) { c.cfg.Workers = k }
}

// WithTransport selects the byte-moving substrate.
func WithTransport(t Transport) Option {
	return func(c *config) {
		switch t {
		case InProcess:
			c.cfg.UseTCP = false
		case TCP:
			c.cfg.UseTCP = true
		default:
			c.fail(fmt.Errorf("lpsgd: unknown transport %d", t))
		}
	}
}

// WithPrimitive selects MPI reduce-and-broadcast or the NCCL ring.
func WithPrimitive(p Primitive) Option {
	return func(c *config) { c.cfg.Primitive = p }
}

// WithCluster runs this process as one rank of a multi-process world:
// NewTrainer performs the cluster rendezvous at addr (rank 0 listens
// and coordinates, other ranks dial in), negotiates the session's
// precision policy with the peers, and returns a trainer that drives
// only this rank — gradients cross process and machine boundaries over
// the dialled TCP mesh. The negotiated policy overrides WithPolicy and
// WithCodec (which still contribute to the advertised set; see
// WithAcceptedPolicies), and the world size overrides WithWorkers.
// Every rank must use the same seed, schedule, batch size and model
// builder, or the replicas will not stay bit-identical.
func WithCluster(addr string, rank, world int) Option {
	return func(c *config) {
		if c.cluster == nil {
			c.cluster = &clusterJoin{}
		}
		// An already-adopted session is owned and must not leak when a
		// later option replaces the membership.
		if c.cluster.session != nil {
			c.cluster.session.Close()
			c.cluster.session = nil
		}
		c.cluster.addr = addr
		c.cluster.rank = rank
		c.cluster.world = world
	}
}

// WithClusterSession adopts an already-established cluster membership —
// for launchers that need cluster.NewCoordinator first to learn a
// ":0" rendezvous port before spawning the other ranks. The trainer
// takes ownership of the session and closes it on Close.
func WithClusterSession(s *cluster.Session) Option {
	return func(c *config) {
		if s == nil {
			c.fail(fmt.Errorf("lpsgd: nil cluster session"))
			return
		}
		if c.cluster == nil {
			c.cluster = &clusterJoin{}
		}
		if c.cluster.session != nil && c.cluster.session != s {
			c.cluster.session.Close()
		}
		c.cluster.session = s
	}
}

// WithClusterTimeout bounds every step of the WithCluster rendezvous
// handshake — dialling the coordinator (with retries while it is not
// up yet), the hello/welcome exchange, and mesh establishment. The
// default is 30 seconds; hand-launched multi-machine runs or
// schedulers that place ranks slowly need more. It does not bound the
// training traffic that follows, and has no effect with
// WithClusterSession (the session was already established).
func WithClusterTimeout(d time.Duration) Option {
	return func(c *config) {
		if d <= 0 {
			c.fail(fmt.Errorf("lpsgd: cluster timeout must be positive, got %v", d))
			return
		}
		if c.cluster == nil {
			c.cluster = &clusterJoin{}
		}
		c.cluster.timeout = d
	}
}

// WithHeartbeat tunes the cluster's health plane: every rank pings
// every peer over a dedicated control link each interval, and a peer
// silent for timeout (or whose inter-arrival statistics say it should
// have spoken long ago — see health.Detector) is declared dead. The
// first rank to reach a verdict broadcasts a coordinated abort, so
// every survivor's Run returns the same health.ErrPeerDead instead of
// hanging in the exchange. A zero interval disables the health plane
// entirely; a zero timeout defaults to 8× the interval.
//
// The coordinator's values govern the whole session (they ride in the
// rendezvous welcome); on other ranks the option only shapes the
// advertised preference. It has no effect with WithClusterSession —
// the session's health plane was fixed when the rendezvous ran — and
// outside cluster mode.
func WithHeartbeat(interval, timeout time.Duration) Option {
	return func(c *config) {
		if interval < 0 || timeout < 0 {
			c.fail(fmt.Errorf("lpsgd: heartbeat interval %v / timeout %v must not be negative", interval, timeout))
			return
		}
		if timeout > 0 && timeout < interval {
			c.fail(fmt.Errorf("lpsgd: heartbeat timeout %v shorter than the interval %v", timeout, interval))
			return
		}
		if c.cluster == nil {
			c.cluster = &clusterJoin{}
		}
		c.cluster.health = health.Config{
			Interval: interval,
			Timeout:  timeout,
			Disable:  interval == 0,
		}
	}
}

// WithElastic turns a death verdict into a recoverable event: instead
// of aborting the whole cluster when one rank dies, the survivors
// quiesce at the next step barrier, the coordinator holds a rejoin
// barrier open for rejoinWindow, a replacement process (lpsgd-worker
// -rejoin, typically launched by a supervisor reacting to the death)
// claims the dead rank's slot via rendezvous state transfer, and
// training resumes — with digests bit-identical to an uninterrupted
// run for residual-free precision policies (32bit, the QSGD family;
// see repro/elastic for the exact-resume contract). maxRejoins caps
// how many such repairs this process tolerates (0 means
// elastic.DefaultMaxRejoins, negative means unlimited); a further
// death, or a window that expires without a replacement, surfaces the
// usual health.ErrPeerDead. A zero rejoinWindow means
// elastic.DefaultRejoinWindow.
//
// Like WithHeartbeat, the coordinator governs the session: its window
// rides in the rendezvous welcome and decides for every rank whether
// elasticity is on (on other ranks the option only sets the local
// rejoin budget). Elasticity requires the health plane — the failure
// detector's verdict is the rejoin trigger — so combining WithElastic
// with a disabled heartbeat is a construction error on the
// coordinator. No effect outside cluster mode.
func WithElastic(maxRejoins int, rejoinWindow time.Duration) Option {
	return func(c *config) {
		if rejoinWindow < 0 {
			c.fail(fmt.Errorf("lpsgd: rejoin window must not be negative, got %v", rejoinWindow))
			return
		}
		if c.cluster == nil {
			c.cluster = &clusterJoin{}
		}
		c.cluster.elastic = elastic.Config{
			Enable:       true,
			RejoinWindow: rejoinWindow,
			MaxRejoins:   maxRejoins,
		}
	}
}

// WithStepDeadline bounds the wall time of one synchronous step
// (compute + gradient exchange); on expiry the trainer aborts the
// fabric and Run returns a parallel.ErrStepDeadline. Where the
// heartbeat catches a dead peer, the deadline catches a live but
// hopeless one: a rank that heartbeats happily while its exchange
// never finishes. Zero (the default) disables it.
func WithStepDeadline(d time.Duration) Option {
	return func(c *config) {
		if d < 0 {
			c.fail(fmt.Errorf("lpsgd: step deadline must not be negative, got %v", d))
			return
		}
		c.cfg.StepDeadline = d
	}
}

// WithHealthHandler registers a callback invoked once per death
// verdict the health plane reaches — after the fabric has been
// aborted, so the callback may inspect state but the exchange is
// already unblocking. In an elastic session (WithElastic) that can
// mean once per repaired death: the handler is re-registered on every
// replacement monitor a rejoin round installs. Use it for operational
// side channels (alerting, checkpoint-on-death); Run still returns
// the health.ErrPeerDead verdict when a death goes unrepaired. No
// effect when the health plane is off or outside cluster mode.
func WithHealthHandler(fn func(error)) Option {
	return func(c *config) {
		if fn == nil {
			c.fail(fmt.Errorf("lpsgd: nil health handler"))
			return
		}
		c.handler = fn
	}
}

// WithMetrics attaches an obs metrics registry: the trainer registers
// its counters, gauges and step histograms (wire bytes, steps, phase
// timings, per-peer link traffic in cluster mode) on it at
// construction. Serve the registry with obs.Serve or scrape it via
// Registry.WriteText. Nil is the default (no metrics).
func WithMetrics(reg *obs.Registry) Option {
	return func(c *config) { c.cfg.Metrics = reg }
}

// WithTracer attaches an obs step-phase tracer: the trainer and its
// reducers record compute/quantise/encode/transfer/decode/barrier
// spans per step, and the cluster session (when one is joined through
// this facade) records its rendezvous and rejoin rounds as control
// spans. The tracer is nil-safe and fully inert when unset; convert a
// captured trace with lpsgd-trace to compare against the simulator.
func WithTracer(tr *obs.Tracer) Option {
	return func(c *config) { c.cfg.Tracer = tr }
}

// WithTelemetry turns on the convergence-telemetry sampler: every
// everySteps steps the trainer snapshots the step loss, per-tensor
// gradient norms and the live quantisation error of the negotiated
// codec (probed on a scratch copy of the gradients — training bits
// and data-plane traffic are untouched), publishes the sample to the
// local metrics registry (WithMetrics) and, in cluster mode, ships it
// to every peer over the heartbeat control plane, where the bytes
// count under ControlBytes. Zero (the default) disables sampling.
func WithTelemetry(everySteps int) Option {
	return func(c *config) {
		if everySteps < 0 {
			c.fail(fmt.Errorf("lpsgd: telemetry cadence must be non-negative, got %d", everySteps))
			return
		}
		c.cfg.TelemetryEvery = everySteps
	}
}

// WithTelemetryObserver registers a callback invoked once per
// telemetry snapshot this rank learns about — synchronously for its
// own samples, from the control-plane read loop for a peer's. Feed it
// to cluster.TelemetryHub.Observe to aggregate a cluster-wide view.
// Like WithHealthHandler, the observer survives elastic rejoins: it
// is re-registered on every replacement monitor. No effect outside
// cluster mode or when telemetry is off.
func WithTelemetryObserver(fn func(peer int, s health.TelemetrySnapshot)) Option {
	return func(c *config) {
		if fn == nil {
			c.fail(fmt.Errorf("lpsgd: nil telemetry observer"))
			return
		}
		c.cfg.TelemetryObserver = fn
	}
}

// WithAcceptedPolicies sets the policy strings (quant.ParsePolicy
// grammar — bare codec names included) this rank advertises during the
// cluster rendezvous; the session settles on the cheapest policy every
// peer accepts by canonical spelling, with "32bit" as the floor.
// Without this option the rank advertises its configured policy (plus
// the floor). Outside cluster mode the option has no effect.
func WithAcceptedPolicies(names ...string) Option {
	return func(c *config) { c.accept = names }
}

// WithBatchSize sets the global minibatch size, sharded over workers.
func WithBatchSize(n int) Option {
	return func(c *config) { c.cfg.BatchSize = n }
}

// WithEpochs sets the number of passes over the training set.
func WithEpochs(n int) Option {
	return func(c *config) { c.cfg.Epochs = n }
}

// WithLearningRate sets a constant learning rate; WithSchedule
// overrides it.
func WithLearningRate(lr float32) Option {
	return func(c *config) { c.lr = lr }
}

// WithSchedule supplies a per-epoch learning-rate schedule.
func WithSchedule(s nn.Schedule) Option {
	return func(c *config) { c.cfg.Schedule = s }
}

// WithMomentum sets the SGD momentum (default: the paper's 0.9).
func WithMomentum(m float32) Option {
	return func(c *config) { c.cfg.Momentum = m }
}

// WithWeightDecay sets the L2 regularisation coefficient.
func WithWeightDecay(wd float32) Option {
	return func(c *config) { c.cfg.WeightDecay = wd }
}

// WithClipNorm bounds the global gradient L2 norm after aggregation.
func WithClipNorm(limit float32) Option {
	return func(c *config) { c.cfg.ClipNorm = limit }
}

// WithSeed fixes all randomness (init, shuffling, stochastic rounding).
func WithSeed(seed uint64) Option {
	return func(c *config) { c.cfg.Seed = seed }
}

// WithEvalEvery evaluates test accuracy every n epochs.
func WithEvalEvery(n int) Option {
	return func(c *config) { c.cfg.EvalEvery = n }
}

// WithMinQuantisedFraction sets the small-matrix exemption target
// (default: the paper's 0.99): the plan picks the largest exemption
// threshold that still quantises at least this fraction of the
// parameters no policy rule claims. It must lie in (0, 1]; zero is
// rejected rather than silently falling back to the default — to
// disable quantisation entirely, use WithCodec("32bit"). It edits the
// working policy's MinFrac; "minfrac=<f>" inside WithPolicy is the
// same knob.
func WithMinQuantisedFraction(f float64) Option {
	return func(c *config) {
		if !(f > 0 && f <= 1) {
			c.fail(fmt.Errorf("lpsgd: min quantised fraction %v outside (0,1]; use WithCodec(\"32bit\") to disable quantisation", f))
			return
		}
		c.editPolicy().MinFrac = f
	}
}

func (c *config) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// NewTrainer builds a synchronous data-parallel trainer from a model
// builder and options. Unset options fall back to a small, paper-shaped
// default: 4 workers, global batch 64, 10 epochs, constant LR 0.05,
// momentum 0.9, full-precision gradients, the MPI primitive over the
// in-process transport.
func NewTrainer(model BuildFunc, opts ...Option) (*Trainer, error) {
	c := config{
		cfg: parallel.Config{
			Workers:   4,
			BatchSize: 64,
			Epochs:    10,
			Momentum:  0.9,
		},
		lr: 0.05,
	}
	for _, opt := range opts {
		opt(&c)
	}
	// An adopted session is owned from the moment the option ran: every
	// error path must release it, or the mesh stays open and the peer
	// ranks block in their first exchange forever.
	if model == nil {
		c.fail(fmt.Errorf("lpsgd: model builder is required"))
	}
	if c.err != nil {
		if c.cluster != nil && c.cluster.session != nil {
			c.cluster.session.Close()
		}
		return nil, c.err
	}
	if c.cfg.Schedule == nil {
		c.cfg.Schedule = nn.ConstantLR(c.lr)
	}
	c.cfg.Policy = c.policy
	// A bare WithClusterTimeout without WithCluster/WithClusterSession
	// names no cluster to join and is ignored.
	if c.cluster != nil && (c.cluster.session != nil || c.cluster.addr != "") {
		sess := c.cluster.session
		if sess == nil {
			var err error
			sess, err = cluster.Join(cluster.Config{
				Addr:    c.cluster.addr,
				Rank:    c.cluster.rank,
				World:   c.cluster.world,
				Accept:  c.acceptedPolicies(),
				Timeout: c.cluster.timeout,
				Health:  c.cluster.health,
				Elastic: c.cluster.elastic,
				Tracer:  c.cfg.Tracer,
			})
			if err != nil {
				return nil, err
			}
		}
		// The rendezvous outcome drives the engine: negotiated policy,
		// world size, this rank, the established mesh, the health plane
		// watching it (the trainer owns the monitor and closes it — bye
		// first, then sockets — in Close), and — when the coordinator
		// enabled elasticity — the session itself as the trainer's
		// rejoin controller.
		c.cfg.Policy = sess.Policy()
		c.cfg.Workers = sess.World()
		c.cfg.Rank = sess.Rank()
		c.cfg.Fabric = sess.Fabric()
		c.cfg.Monitor = sess.Monitor()
		c.cfg.UseTCP = false
		if sess.Elastic().Enable {
			c.cfg.Elastic = sess
			c.cfg.MaxRejoins = sess.Elastic().MaxRejoins
			// WithElastic's budget wins over an adopted session's: the
			// session learnt the coordinator's window from the welcome,
			// but the budget is a per-process choice.
			if c.cluster.elastic.MaxRejoins != 0 {
				c.cfg.MaxRejoins = c.cluster.elastic.MaxRejoins
			}
		}
		// The handler goes through the trainer, not straight onto the
		// session's monitor: a rejoin round replaces the monitor, and
		// the trainer re-registers the handler on each replacement so
		// alerting keeps working across repairs.
		c.cfg.HealthHandler = c.handler
		t, err := parallel.NewTrainer(model, c.cfg)
		if err != nil {
			sess.Close()
			return nil, err
		}
		return t, nil
	}
	return parallel.NewTrainer(model, c.cfg)
}

// acceptedPolicies resolves the advertised policy set for a
// rendezvous: the explicit WithAcceptedPolicies list, or the configured
// policy's canonical name.
func (c *config) acceptedPolicies() []string {
	if len(c.accept) > 0 {
		return c.accept
	}
	if c.policy != nil {
		return []string{c.policy.Name()}
	}
	return nil
}
