package parallel

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/comm"
	"repro/data"
	"repro/elastic"
	"repro/health"
	"repro/nn"
	"repro/obs"
	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

// Trainer runs synchronous data-parallel SGD. In the default
// single-process mode it owns all K replicas and drives them from K
// goroutines; with Config.Fabric set it is one rank of a multi-process
// world and owns only the local replica — the remaining ranks live in
// other OS processes reachable over the mesh.
type Trainer struct {
	cfg Config
	// local holds one record per global rank this process drives, in
	// rank order: all K in single-process mode, cfg.Rank's alone in
	// cluster mode. local[0] holds the canonical model.
	local    []*replica
	fabric   comm.Transport
	reducer  *comm.Collective
	plan     *quant.Plan
	specs    []comm.TensorSpec
	monitor  *health.Monitor
	watchdog watchdog

	// stepIdx counts completed synchronous steps; statsMu guards it,
	// the straggler report, the elastic cursor, and the fabric/monitor
	// identities (which a rejoin round swaps while metric scrapes read
	// them). No monitor method is called while statsMu is held.
	stepIdx int64
	statsMu sync.Mutex
	// stats is the latest straggler report: recordStep writes it in
	// place, StepStats copies it out. peers and peerKnown hold the
	// health plane's latest per-rank reports, which recordStep reads
	// before it takes the lock.
	stats     StepStats
	peers     []health.StepReport
	peerKnown []bool

	// tracer/metrics are the observability plane (both may be nil).
	tracer       *obs.Tracer
	metrics      *obs.Registry
	computeHist  *obs.Histogram
	exchangeHist *obs.Histogram
	beatHist     *obs.Histogram
	// Convergence-telemetry instruments, registered when
	// Config.TelemetryEvery > 0 (see captureTelemetry). teleScratch is
	// the reusable gradient copy quant.MeasureError probes so the
	// codecs never see — let alone touch — live training state.
	lossGauge   *obs.Gauge
	teleStepG   *obs.Gauge
	gradL2G     []*obs.Gauge
	gradInfG    []*obs.Gauge
	rmseG       []*obs.Gauge
	compG       []*obs.Gauge
	teleScratch []float32

	// Elastic cursor (guarded by statsMu): where in the data schedule
	// the last completed step happened. curEpoch is the running epoch,
	// lastBatch the index of the last completed batch within it (-1
	// before the first), epochShuffleState the shuffle RNG's state at
	// the epoch's start — together they pin the exact resume position a
	// snapshot carries.
	curEpoch          int
	lastBatch         int
	epochShuffleState uint64
	// restored is a pending resume cursor: a snapshot installed by
	// Restore (a replacement before Run) or by a rejoin round (a
	// survivor catching up), consumed by the training loop.
	restored *elastic.Snapshot
	// rejoins counts completed rejoin rounds against Config.MaxRejoins;
	// wireBase accumulates the traffic of fabrics retired by those
	// rounds so byte accounting stays cumulative across repairs.
	rejoins  int
	wireBase int64

	// workers joins a step's replica workers; stepTrain and stepBatch
	// are the step's operands while they run, cleared after the join.
	workers   sync.WaitGroup
	stepTrain *data.Dataset
	stepBatch []int
	// The evaluation batch's indices and storage, reused from call to
	// call.
	evalIdx    []int
	evalX      *tensor.Matrix
	evalLabels []int
}

// replica is one local rank's state: its model, optimiser and loss
// head, the batch and gradient-list storage its steps reuse, and the
// results of its latest step, which its worker goroutine writes and
// the step driver reads once the workers join.
type replica struct {
	rank int
	net  *nn.Network
	opt  *nn.SGD
	loss *nn.SoftmaxCrossEntropy
	// The shard's batch, grown once and reused every step, and the
	// gradient list the exchange takes (the parameters' gradient
	// storage never moves).
	x      *tensor.Matrix
	labels []int
	grads  [][]float32

	stepLoss          float64
	err               error
	compute, exchange time.Duration
	// run is the worker a step spawns for this replica, built once, so
	// that spawning it allocates nothing: it steps the replica on the
	// trainer's step operands and signals the trainer's WaitGroup.
	run func()
}

// NewTrainer builds the local replicas with identical initial weights
// using build, which must be deterministic in its RNG argument. In
// single-process mode that is all K replicas; in cluster mode
// (cfg.Fabric set) it is the one replica of cfg.Rank, bit-identical to
// every other rank's because each process seeds build with the same
// cfg.Seed.
func NewTrainer(build func(r *rng.RNG) *nn.Network, cfg Config) (*Trainer, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	k := cfg.Workers
	t := &Trainer{
		cfg: cfg, monitor: cfg.Monitor, tracer: cfg.Tracer, metrics: cfg.Metrics,
		stats: StepStats{
			Compute: make([]time.Duration, k), Exchange: make([]time.Duration, k),
			Known: make([]bool, k), Slowest: -1,
		},
		peers: make([]health.StepReport, k), peerKnown: make([]bool, k),
	}
	if cfg.Fabric != nil {
		if fk := cfg.Fabric.K(); fk != k {
			return nil, fmt.Errorf("parallel: fabric spans %d ranks, config wants %d workers", fk, k)
		}
		if cfg.Rank < 0 || cfg.Rank >= k {
			return nil, fmt.Errorf("parallel: rank %d outside world of %d", cfg.Rank, k)
		}
	} else if cfg.Elastic != nil {
		return nil, fmt.Errorf("parallel: elastic sessions need cluster mode (Config.Fabric); a single-process trainer has no rank to lose")
	}
	for w := range k {
		if cfg.Fabric != nil && w != cfg.Rank {
			continue // another process drives rank w
		}
		// Same init seed for every replica: weights start identical —
		// across goroutines here and across OS processes in cluster
		// mode. (Per-worker stochastic behaviour such as dropout uses
		// layer RNGs forked from this same stream; masks may coincide
		// across replicas, which only makes shards more, not less,
		// comparable.)
		net := build(rng.New(cfg.Seed))
		opt := nn.NewSGD(net.Params(), cfg.Schedule.LRAt(0), cfg.Momentum)
		opt.SetWeightDecay(cfg.WeightDecay)
		r := &replica{rank: w, net: net, opt: opt, loss: nn.NewSoftmaxCrossEntropy()}
		for _, p := range net.Params() {
			r.grads = append(r.grads, p.Grad.Data)
		}
		r.run = func() {
			defer t.workers.Done()
			r.step(t, t.stepTrain, t.stepBatch)
		}
		t.local = append(t.local, r)
	}
	infos := t.local[0].net.TensorInfos()
	t.plan = quant.NewPlan(cfg.Policy, infos)
	for i, p := range t.local[0].net.Params() {
		c := t.plan.CodecFor(i)
		t.specs = append(t.specs, comm.TensorSpec{
			Name:  p.Name,
			N:     p.Grad.Len(),
			Wire:  p.WireShape,
			Codec: c,
		})
	}
	if cfg.TelemetryEvery > 0 && t.monitor != nil {
		names := make([]string, len(t.specs))
		for i, s := range t.specs {
			names[i] = s.Name
		}
		if err := health.CheckTelemetryNames(names); err != nil {
			return nil, fmt.Errorf("parallel: telemetry: %w", err)
		}
	}
	switch {
	case cfg.Fabric != nil:
		t.fabric = cfg.Fabric
	case cfg.UseTCP:
		tcp, err := comm.NewTCPFabric(cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("parallel: tcp fabric: %w", err)
		}
		t.fabric = tcp
	default:
		t.fabric = comm.NewFabric(cfg.Workers)
	}
	t.buildReducer()
	t.registerMetrics()
	t.attachMonitor()
	t.lastBatch = -1
	return t, nil
}

// buildReducer (re)builds the collective over the current fabric — at
// construction, and again after a rejoin round replaced the mesh — with
// encoder state for the local ranks only. Encoder state starts fresh
// either way: elastic runs key the stochastic streams per step
// (Collective.BeginStep), and error-feedback residuals reset to zero on
// every rank in lockstep.
func (t *Trainer) buildReducer() {
	ranks := make([]int, len(t.local))
	for i, r := range t.local {
		ranks[i] = r.rank
	}
	t.reducer = comm.NewCollective(t.fabric, t.cfg.Primitive, t.specs, t.cfg.Seed, ranks)
	t.reducer.SetTracer(t.tracer)
}

// Close releases the fabric's resources (socket connections for the
// TCP transport; a no-op for the in-process fabric). In cluster mode
// the health monitor closes first: its parting bye tells every peer
// this rank is departing cleanly, so the sockets vanishing moments
// later is not mistaken for a death. A closed trainer must not Run
// again.
func (t *Trainer) Close() error {
	if t.monitor != nil {
		t.monitor.Close()
	}
	if c, ok := t.fabric.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// abortFabric interrupts every blocked exchange on f with err.
// RemoteFabric delivers the typed error; other closable fabrics fall
// back to ErrClosed semantics; the in-process channel fabric has no
// interrupt path (its exchanges cannot wedge without a local bug).
func abortFabric(f comm.Transport, err error) {
	switch f := f.(type) {
	case interface{ Abort(error) }:
		f.Abort(err)
	case io.Closer:
		f.Close()
	}
}

// StepStats returns the straggler report of the most recent completed
// (or timing-out) synchronous step. Before the first step it is zero
// with Slowest == -1. It copies the report out under statsMu, so
// callers may read it concurrently with Run and keep the result.
func (t *Trainer) StepStats() StepStats {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	if t.stats.Step == 0 {
		return StepStats{Slowest: -1}
	}
	s := t.stats
	s.Compute = slices.Clone(s.Compute)
	s.Exchange = slices.Clone(s.Exchange)
	s.Known = slices.Clone(s.Known)
	return s
}

// Plan exposes the per-tensor codec assignment (for reporting).
func (t *Trainer) Plan() *quant.Plan { return t.plan }

// Policy returns the precision policy the trainer runs under — the
// negotiated one in cluster mode, the configured one otherwise.
func (t *Trainer) Policy() *quant.Policy { return t.plan.Policy }

// Rank returns the lowest rank this process drives: the cluster rank
// in multi-process mode, 0 when the trainer owns the whole world.
func (t *Trainer) Rank() int { return t.local[0].rank }

// World returns the global worker count K, whether the ranks live in
// this process or across a cluster.
func (t *Trainer) World() int { return t.cfg.Workers }

// Reducer exposes the collective (for reporting).
func (t *Trainer) Reducer() *comm.Collective { return t.reducer }

// Monitor exposes the attached health monitor (nil outside cluster
// mode) — for registering verdict handlers or reading raw peer
// telemetry; StepStats is the digested view.
func (t *Trainer) Monitor() *health.Monitor { return t.monitor }

// Model returns replica 0, the canonical model.
func (t *Trainer) Model() *nn.Network { return t.local[0].net }

// Run trains on train for the configured epochs, measuring accuracy on
// test, and returns the history.
//
// With an elastic controller attached (Config.Elastic), a peer-death
// verdict mid-run is repaired instead of surfaced: the loop quiesces
// at the step barrier its abort unwound to, the controller rebuilds
// the world, and training continues — re-running the interrupted step
// in place, or jumping to a donor's cursor when this rank had to catch
// up. A trainer that had a snapshot installed before Run (Restore /
// LoadState) starts at the snapshot's cursor instead of epoch 0; its
// History then records the resumed portion only, and WireBytes counts
// traffic of the current mesh incarnation.
func (t *Trainer) Run(train, test *data.Dataset) (*History, error) {
	cfg := t.cfg
	h := &History{Config: cfg}
	shuffle := rng.New(cfg.Seed).Fork(0xdead)
	epoch, startBatch := 0, 0
	if snap := t.takeRestored(); snap != nil {
		shuffle.SetState(snap.ShuffleState)
		epoch, startBatch = snap.Epoch, snap.Batch+1
	}
	for epoch < cfg.Epochs {
		start := time.Now()
		lr := cfg.Schedule.LRAt(epoch)
		for _, r := range t.local {
			r.opt.SetLR(lr)
		}
		// The cursor marks the epoch's start before the permutation is
		// drawn: restoring epochShuffleState and replaying Batches
		// reproduces the exact batch order lastBatch indexes into.
		t.statsMu.Lock()
		t.curEpoch = epoch
		t.lastBatch = startBatch - 1
		t.epochShuffleState = shuffle.State()
		t.statsMu.Unlock()
		batches := train.Batches(shuffle, cfg.BatchSize)
		var lossSum float64
		var lossCnt int
		slowCount := make([]int, cfg.Workers)
		jumped := false
		for bi := startBatch; bi < len(batches); bi++ {
			batch := batches[bi]
			if len(batch) < cfg.Workers {
				t.noteBatch(bi)
				continue // drop a tail smaller than the worker count
			}
			loss, err := t.runStep(train, batch)
			if err != nil {
				snap, rerr := t.tryRejoin(err)
				if rerr != nil {
					return nil, rerr
				}
				if snap != nil {
					// This rank was behind the resume point: adopt the
					// donor's cursor and re-enter the outer loop there.
					// The partial pass contributes no epoch stats.
					shuffle.SetState(snap.ShuffleState)
					epoch, startBatch = snap.Epoch, snap.Batch+1
					jumped = true
					break
				}
				// Already at the resume point: re-run the interrupted
				// step over the rebuilt mesh.
				bi--
				continue
			}
			t.noteBatch(bi)
			lossSum += loss
			lossCnt++
			// Only this goroutine writes the report, so it reads it
			// without the lock.
			if s := t.stats.Slowest; s >= 0 {
				slowCount[s]++
			}
		}
		if jumped {
			continue
		}
		startBatch = 0
		slowest := -1
		for r, n := range slowCount {
			if n > 0 && (slowest < 0 || n > slowCount[slowest]) {
				slowest = r
			}
		}
		stats := EpochStats{
			Epoch:        epoch,
			TrainLoss:    lossSum / float64(max(lossCnt, 1)),
			TestAccuracy: -1,
			TestTop5:     -1,
			LR:           lr,
			WireBytes:    t.WireBytes(),
			Elapsed:      time.Since(start),
			SlowestRank:  slowest,
		}
		if (epoch+1)%cfg.EvalEvery == 0 || epoch == cfg.Epochs-1 {
			accs := t.EvaluateKs(test, 1, 5)
			stats.TestAccuracy = accs[0]
			stats.TestTop5 = accs[1]
			h.FinalAccuracy = stats.TestAccuracy
			if stats.TestAccuracy > h.BestAccuracy {
				h.BestAccuracy = stats.TestAccuracy
			}
		}
		h.Epochs = append(h.Epochs, stats)
		epoch++
	}
	h.TotalWireBytes = t.WireBytes()
	return h, nil
}

// runStep drives one synchronous step on the caller's goroutine,
// through the guard rails: a health-plane verdict fails fast between
// steps (during one, attachMonitor's handler aborts the fabric), and
// the optional step deadline arms the watchdog, whose expiry aborts
// the fabric so the blocked workers unwind.
func (t *Trainer) runStep(train *data.Dataset, batch []int) (float64, error) {
	if t.monitor != nil {
		// A verdict reached between steps fails fast, before any local
		// worker blocks inside a voided exchange.
		if err := t.monitor.Verdict(); err != nil {
			return 0, err
		}
	}
	deadline, start := t.cfg.StepDeadline, time.Now()
	if deadline > 0 {
		t.watchdog.arm(t.fabric, ErrStepDeadline{Rank: t.local[0].rank, Step: t.currentStep() + 1, Deadline: deadline})
	}
	loss, err := t.step(train, batch)
	// The bound is on wall time, so a step that finished past it
	// reports the overrun even if the timer had not fired yet. On the
	// channel fabric, which cannot be interrupted, the step always
	// finishes first and then reports the deadline.
	if deadline > 0 && (t.watchdog.disarm() || time.Since(start) > deadline) {
		err := error(t.watchdog.err)
		abortFabric(t.fabric, err)
		return 0, err
	}
	if err != nil && t.monitor != nil {
		if v := t.monitor.Verdict(); v != nil {
			return 0, v
		}
		if !errors.Is(err, comm.ErrClosed) {
			// A dying peer's data sockets EOF at the same instant as its
			// control links, so the raw transport error can beat the
			// failure detector by microseconds. With a health plane
			// attached the transport error is a symptom and the verdict
			// is the diagnosis: wait — bounded by the detector's hard
			// deadline, which covers even a half-open silent peer — for
			// the typed verdict every survivor must agree on, and fall
			// back to the raw error only if the plane stays convinced
			// the peers are alive (a genuine local transport fault).
			if v := t.awaitVerdict(); v != nil {
				return 0, v
			}
		}
	}
	return loss, err
}

// watchdog bounds each step's wall time with one timer per trainer,
// made on the first arm and reset for every later step, that aborts
// the step's fabric on expiry. fired carries one token per firing,
// which disarm takes, so a late firing never aborts the next step;
// Reset orders arm's writes before the firing it schedules.
type watchdog struct {
	timer  *time.Timer
	fired  chan struct{}
	fabric comm.Transport
	err    ErrStepDeadline
}

func (w *watchdog) arm(fabric comm.Transport, err ErrStepDeadline) {
	w.fabric, w.err = fabric, err
	if w.timer != nil {
		w.timer.Reset(err.Deadline)
		return
	}
	w.fired = make(chan struct{}, 1)
	w.timer = time.AfterFunc(err.Deadline, func() {
		abortFabric(w.fabric, w.err)
		w.fired <- struct{}{}
	})
}

// disarm stops the timer and reports whether it fired.
func (w *watchdog) disarm() bool {
	if w.timer.Stop() {
		return false
	}
	<-w.fired
	return true
}

// currentStep reads the completed-step counter under the stats lock
// (recordStep increments it).
func (t *Trainer) currentStep() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stepIdx
}

// awaitVerdict waits up to the health plane's hard detection deadline
// for a death verdict, returning it, or nil if none arrives (the peers
// are provably alive and heartbeating).
func (t *Trainer) awaitVerdict() error {
	grace := time.NewTimer(t.monitor.Config().Timeout)
	defer grace.Stop()
	select {
	case <-t.monitor.Dead():
		return t.monitor.Verdict()
	case <-grace.C:
		return nil
	}
}

// step performs one synchronous iteration over the given global batch.
// Sharding is by global rank, so every process of a cluster world
// computes gradients over a disjoint slice of the same deterministic
// batch; the loss it reports averages its local shards only.
func (t *Trainer) step(train *data.Dataset, batch []int) (float64, error) {
	next := t.currentStep() + 1
	// Elastic sessions key the collective's stochastic streams to the
	// step about to run — once, before any worker encodes. Every rank
	// derives the same index from its own completed-step counter, so
	// the streams agree across processes; re-entering an aborted step
	// re-keys to the same index, which is what lets a rejoin re-run it
	// bit-identically, and a replacement reconstruct a dead rank's
	// streams from the counters alone. Non-elastic runs keep the
	// paper's original cumulative streams, so enabling elasticity is
	// the one switch that changes (reproducibly) which random draws a
	// quantised run sees.
	if t.cfg.Elastic != nil {
		t.reducer.BeginStep(next)
	}
	// Publish the step index to the tracer so the reducer's spans carry
	// it without any per-message plumbing (nil-safe no-op when off).
	t.tracer.SetStep(next)
	t.stepTrain, t.stepBatch = train, batch
	t.workers.Add(len(t.local))
	for _, r := range t.local {
		go r.run()
	}
	t.workers.Wait()
	t.stepTrain, t.stepBatch = nil, nil
	var sum float64
	for _, r := range t.local {
		if r.err != nil {
			return 0, r.err
		}
		sum += r.stepLoss
	}
	t.recordStep(next)
	mean := sum / float64(len(t.local))
	if every := int64(t.cfg.TelemetryEvery); every > 0 && next%every == 0 {
		t.captureTelemetry(next, mean)
	}
	return mean, nil
}

// step is one local rank's part of a synchronous step: forward and
// backward over its shard, the exchange, and the update.
func (r *replica) step(t *Trainer, train *data.Dataset, batch []int) {
	k := t.cfg.Workers
	c0 := t.tracer.Now()
	start := time.Now()
	shard := batch[r.rank*len(batch)/k : (r.rank+1)*len(batch)/k]
	r.x, r.labels = train.GatherInto(r.x, r.labels, shard)
	r.net.ZeroGrads()
	r.stepLoss = r.loss.Forward(r.net.Forward(r.x, true), r.labels)
	r.net.Backward(r.loss.Backward(r.labels))
	r.compute = time.Since(start)
	t.tracer.Record(r.rank, obs.PhaseCompute, "step", -1, 0, c0, int64(r.compute))
	// Exchange every tensor in one call; the barrier span covers the
	// whole blocking exchange, the reducer's fine spans break it down,
	// and the remainder is straggler wait.
	e0 := t.tracer.Now()
	exchStart := time.Now()
	if r.err = t.reducer.ReduceAll(r.rank, r.grads); r.err != nil {
		return
	}
	r.exchange = time.Since(exchStart)
	t.tracer.Record(r.rank, obs.PhaseBarrier, "exchange", -1, 0, e0, int64(r.exchange))
	// Average over workers — the paper's x ← x − (η/K)·Σ g̃ — inside
	// the optimiser's one update pass, which stores the averaged
	// gradient back. Clipping bounds the norm of the averaged gradient,
	// so with a clip the average is its own pass before it and the
	// update multiplies by 1.
	avg := 1 / float32(k)
	if t.cfg.ClipNorm > 0 {
		if avg != 1 {
			for _, p := range r.net.Params() {
				p.Grad.Scale(avg)
			}
		}
		nn.ClipGradNorm(r.net.Params(), t.cfg.ClipNorm)
		avg = 1
	}
	r.opt.StepScaled(avg)
}

// recordStep folds a completed step's local timings — and, in cluster
// mode, the freshest peer reports the heartbeats carried — into the
// straggler report, and hands the local timing to the health plane for
// the next outgoing heartbeat. The health plane is read before statsMu
// is taken.
func (t *Trainer) recordStep(step int64) {
	if m := t.monitor; m != nil {
		r := t.local[0]
		m.ReportStep(health.StepReport{Step: step, Compute: r.compute, Exchange: r.exchange})
		for p := range t.peers {
			t.peers[p], t.peerKnown[p] = m.Report(p)
		}
	}
	for _, r := range t.local {
		t.computeHist.Observe(int64(r.compute))
		t.exchangeHist.Observe(int64(r.exchange))
	}
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	t.stepIdx = step
	s := &t.stats
	s.Step, s.Slowest = step, -1
	for p, rep := range t.peers {
		s.Compute[p], s.Exchange[p], s.Known[p] = rep.Compute, rep.Exchange, t.peerKnown[p]
	}
	for _, r := range t.local {
		s.Compute[r.rank], s.Exchange[r.rank], s.Known[r.rank] = r.compute, r.exchange, true
	}
	// Attribute by compute time: in a blocking collective the other
	// ranks' exchange timers absorb the wait for the straggler, so the
	// compute+exchange sums are nearly equal across ranks and carry no
	// signal. The last rank to finish computing is the one gating the
	// barrier — matching the simulator's attribution.
	var worst time.Duration
	for p, known := range s.Known {
		if known && (s.Slowest < 0 || s.Compute[p] > worst) {
			worst = s.Compute[p]
			s.Slowest = p
		}
	}
}

// Evaluate returns top-1 accuracy of the canonical replica on ds.
func (t *Trainer) Evaluate(ds *data.Dataset) float64 {
	return t.EvaluateKs(ds, 1)[0]
}

// EvaluateKs returns top-k accuracy of the canonical replica on ds for
// each requested k in a single pass (the paper reports top-1 and
// top-5). Its batches are gathered into storage the trainer keeps, so,
// like the replica's forward pass it runs, it must not overlap Run or
// another evaluation.
func (t *Trainer) EvaluateKs(ds *data.Dataset, ks ...int) []float64 {
	const evalBatch = 256
	net := t.local[0].net
	correct := make([]int, len(ks))
	total := 0
	for start := 0; start < ds.Len(); start += evalBatch {
		end := start + evalBatch
		if end > ds.Len() {
			end = ds.Len()
		}
		t.evalIdx = t.evalIdx[:0]
		for i := start; i < end; i++ {
			t.evalIdx = append(t.evalIdx, i)
		}
		t.evalX, t.evalLabels = ds.GatherInto(t.evalX, t.evalLabels, t.evalIdx)
		x, labels := t.evalX, t.evalLabels
		logits := net.Forward(x, false)
		for i := range labels {
			row := logits.Row(i)
			target := row[labels[i]]
			higher := 0
			for _, v := range row {
				if v > target {
					higher++
				}
			}
			for ki, k := range ks {
				if higher < k {
					correct[ki]++
				}
			}
		}
		total += len(labels)
	}
	out := make([]float64, len(ks))
	if total == 0 {
		return out
	}
	for ki := range ks {
		out[ki] = float64(correct[ki]) / float64(total)
	}
	return out
}

// ReplicasInSync reports whether all replicas hold bit-identical weights
// — the invariant synchronous SGD must maintain.
func (t *Trainer) ReplicasInSync() bool {
	ref := t.local[0].net.Params()
	for _, r := range t.local[1:] {
		for i, p := range r.net.Params() {
			for j, v := range p.Value.Data {
				if v != ref[i].Value.Data[j] {
					return false
				}
			}
		}
	}
	return true
}
