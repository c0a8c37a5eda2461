package parallel

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
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
	// ranks lists the global ranks this process drives; replicas[i],
	// opts[i] and losses[i] belong to ranks[i].
	ranks    []int
	replicas []*nn.Network
	opts     []*nn.SGD
	losses   []*nn.SoftmaxCrossEntropy
	fabric   comm.Transport
	reducer  *comm.Collective
	plan     *quant.Plan
	specs    []comm.TensorSpec
	monitor  *health.Monitor
	// Per-step results of the local ranks (index li, as replicas),
	// written by the step's worker goroutines and read after they join.
	stepLoss     []float64
	stepErr      []error
	stepCompute  []time.Duration
	stepExchange []time.Duration
	// Per-rank step storage, grown once and reused every step: the
	// shard's batch and the gradient list the exchange takes.
	stepX      []*tensor.Matrix
	stepLabels [][]int
	stepGrads  [][][]float32

	// stepIdx counts completed synchronous steps; statsMu guards it,
	// the elastic cursor, and the fabric/monitor identities (which a
	// rejoin round swaps while metric scrapes read them).
	stepIdx int64
	statsMu sync.Mutex
	// lastStats is the latest straggler report, published as an
	// immutable snapshot: recordStep builds a fresh StepStats each step
	// and stores the pointer, so StepStats() readers are race-clean by
	// construction — no lock, no torn reads, nothing shared mutable.
	lastStats atomic.Pointer[StepStats]

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
}

// totalWireBytes returns the bytes this process's ranks have sent over
// every fabric incarnation of the run. statsMu covers the fabric swap
// a rejoin performs, so a concurrent metrics scrape never reads a
// half-retired incarnation.
func (t *Trainer) totalWireBytes() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.wireBase + t.fabric.TotalBytes()
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
	t := &Trainer{cfg: cfg, monitor: cfg.Monitor, tracer: cfg.Tracer, metrics: cfg.Metrics}
	if cfg.Fabric != nil {
		if k := cfg.Fabric.K(); k != cfg.Workers {
			return nil, fmt.Errorf("parallel: fabric spans %d ranks, config wants %d workers", k, cfg.Workers)
		}
		if cfg.Rank < 0 || cfg.Rank >= cfg.Workers {
			return nil, fmt.Errorf("parallel: rank %d outside world of %d", cfg.Rank, cfg.Workers)
		}
		t.ranks = []int{cfg.Rank}
	} else {
		for w := 0; w < cfg.Workers; w++ {
			t.ranks = append(t.ranks, w)
		}
	}
	for range t.ranks {
		// Same init seed for every replica: weights start identical —
		// across goroutines here and across OS processes in cluster
		// mode. (Per-worker stochastic behaviour such as dropout uses
		// layer RNGs forked from this same stream; masks may coincide
		// across replicas, which only makes shards more, not less,
		// comparable.)
		net := build(rng.New(cfg.Seed))
		t.replicas = append(t.replicas, net)
		opt := nn.NewSGD(net.Params(), cfg.Schedule.LRAt(0), cfg.Momentum)
		opt.SetWeightDecay(cfg.WeightDecay)
		t.opts = append(t.opts, opt)
		t.losses = append(t.losses, nn.NewSoftmaxCrossEntropy())
	}
	t.stepLoss = make([]float64, len(t.ranks))
	t.stepErr = make([]error, len(t.ranks))
	t.stepCompute = make([]time.Duration, len(t.ranks))
	t.stepExchange = make([]time.Duration, len(t.ranks))
	t.stepX = make([]*tensor.Matrix, len(t.ranks))
	t.stepLabels = make([][]int, len(t.ranks))
	t.stepGrads = make([][][]float32, len(t.ranks))
	infos := t.replicas[0].TensorInfos()
	t.plan = quant.NewPlan(cfg.Policy, infos)
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
	params := t.replicas[0].Params()
	for i, p := range params {
		c := t.plan.CodecFor(i)
		t.specs = append(t.specs, comm.TensorSpec{
			Name:  p.Name,
			N:     p.Grad.Len(),
			Wire:  p.WireShape,
			Codec: c,
		})
	}
	t.buildReducer()
	if cfg.Elastic != nil && cfg.Fabric == nil {
		t.Close()
		return nil, fmt.Errorf("parallel: elastic sessions need cluster mode (Config.Fabric); a single-process trainer has no rank to lose")
	}
	if cfg.TelemetryEvery > 0 && t.monitor != nil {
		names := make([]string, len(t.specs))
		for i, s := range t.specs {
			names[i] = s.Name
		}
		if err := health.CheckTelemetryNames(names); err != nil {
			t.Close()
			return nil, fmt.Errorf("parallel: telemetry: %w", err)
		}
	}
	if cfg.HealthHandler != nil && t.monitor != nil {
		t.monitor.OnVerdict(cfg.HealthHandler)
	}
	t.registerMetrics()
	t.wireMonitorObs()
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
	t.reducer = comm.NewCollective(t.fabric, t.cfg.Primitive, t.specs, t.cfg.Seed, t.ranks)
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

// abortFabric interrupts every blocked exchange with err. RemoteFabric
// delivers the typed error; other closable fabrics fall back to
// ErrClosed semantics; the in-process channel fabric has no interrupt
// path (its exchanges cannot wedge without a local bug).
func (t *Trainer) abortFabric(err error) bool {
	switch f := t.fabric.(type) {
	case interface{ Abort(error) }:
		f.Abort(err)
		return true
	case io.Closer:
		f.Close()
		return true
	}
	return false
}

// StepStats returns the straggler report of the most recent completed
// (or timing-out) synchronous step. Before the first step it is zero
// with Slowest == -1. The returned snapshot is immutable once
// published — recordStep builds a fresh value per step and swaps an
// atomic pointer — so concurrent callers during Run are race-free by
// construction; the slices are defensively copied only because the
// returned struct is mutable in the caller's hands.
func (t *Trainer) StepStats() StepStats {
	p := t.lastStats.Load()
	if p == nil {
		return StepStats{Slowest: -1}
	}
	s := *p
	s.Compute = append([]time.Duration(nil), s.Compute...)
	s.Exchange = append([]time.Duration(nil), s.Exchange...)
	s.Known = append([]bool(nil), s.Known...)
	return s
}

// Plan exposes the per-tensor codec assignment (for reporting).
func (t *Trainer) Plan() *quant.Plan { return t.plan }

// Policy returns the precision policy the trainer runs under — the
// negotiated one in cluster mode, the configured one otherwise.
func (t *Trainer) Policy() *quant.Policy { return t.plan.Policy }

// Rank returns the lowest rank this process drives: the cluster rank
// in multi-process mode, 0 when the trainer owns the whole world.
func (t *Trainer) Rank() int { return t.ranks[0] }

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
func (t *Trainer) Model() *nn.Network { return t.replicas[0] }

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
		for _, opt := range t.opts {
			opt.SetLR(lr)
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
			if st := t.lastStats.Load(); st != nil && st.Slowest >= 0 {
				slowCount[st.Slowest]++
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
			WireBytes:    t.totalWireBytes(),
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
	h.TotalWireBytes = t.totalWireBytes()
	return h, nil
}

// runStep drives one synchronous step through the guard rails: a
// health-plane verdict fails fast (and interrupts a step in flight),
// and the optional step deadline bounds the wall time of compute plus
// exchange, aborting the fabric on expiry so the blocked workers
// unwind. With neither configured this is a direct call.
func (t *Trainer) runStep(train *data.Dataset, batch []int) (float64, error) {
	deadline := t.cfg.StepDeadline
	if deadline <= 0 && t.monitor == nil {
		return t.step(train, batch)
	}
	if t.monitor != nil {
		// A verdict reached between steps fails fast, before any local
		// worker blocks inside a voided exchange.
		if err := t.monitor.Verdict(); err != nil {
			return 0, err
		}
	}
	type result struct {
		loss float64
		err  error
	}
	step, start := t.currentStep()+1, time.Now()
	done := make(chan result, 1)
	go func() {
		loss, err := t.step(train, batch)
		done <- result{loss, err}
	}()
	var expire <-chan time.Time
	if deadline > 0 {
		timer := time.NewTimer(deadline)
		defer timer.Stop()
		expire = timer.C
	}
	var dead <-chan struct{}
	if t.monitor != nil {
		dead = t.monitor.Dead()
	}
	select {
	case r := <-done:
		if r.err != nil && t.monitor != nil && !errors.Is(r.err, comm.ErrClosed) {
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
		if r.err == nil && deadline > 0 && time.Since(start) > deadline {
			// The step finished past its bound. The result and the timer
			// raced, and select picks among ready cases at random; the
			// bound is on wall time, so the overrun decides either way.
			err := ErrStepDeadline{Rank: t.ranks[0], Step: step, Deadline: deadline}
			t.abortFabric(err)
			return 0, err
		}
		return r.loss, r.err
	case <-expire:
		err := ErrStepDeadline{Rank: t.ranks[0], Step: step, Deadline: deadline}
		// Join the step unconditionally: on an abortable fabric the
		// teardown unwinds it promptly; on the in-process channel fabric
		// (which cannot be interrupted) the exchange is still making
		// progress and finishes on its own — returning without joining
		// would leave the goroutine mutating the replicas under the
		// caller's feet.
		t.abortFabric(err)
		<-done
		return 0, err
	case <-dead:
		err := t.monitor.Verdict()
		// The session wiring aborted the fabric in the verdict handler
		// before Dead() released; abortFabric is an idempotent backstop
		// for monitors attached outside a cluster session.
		t.abortFabric(err)
		<-done
		return 0, err
	}
}

// currentStep reads the completed-step counter under the stats lock
// (the step goroutine increments it in recordStep).
func (t *Trainer) currentStep() int64 {
	t.statsMu.Lock()
	defer t.statsMu.Unlock()
	return t.stepIdx
}

// awaitVerdict waits up to the health plane's hard detection deadline
// for a death verdict, returning it, or nil if none arrives (the peers
// are provably alive and heartbeating).
func (t *Trainer) awaitVerdict() error {
	if v := t.monitor.Verdict(); v != nil {
		return v
	}
	grace := t.monitor.Config().Timeout
	select {
	case <-t.monitor.Dead():
		return t.monitor.Verdict()
	case <-time.After(grace):
		return nil
	}
}

// step performs one synchronous iteration over the given global batch.
// Sharding is by global rank, so every process of a cluster world
// computes gradients over a disjoint slice of the same deterministic
// batch; the loss it reports averages its local shards only.
func (t *Trainer) step(train *data.Dataset, batch []int) (float64, error) {
	k := t.cfg.Workers
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
		t.reducer.BeginStep(t.currentStep() + 1)
	}
	// Publish the step index to the tracer so the reducer's spans carry
	// it without any per-message plumbing (nil-safe no-op when off).
	t.tracer.SetStep(t.currentStep() + 1)
	losses, errs, compute, exchange := t.stepLoss, t.stepErr, t.stepCompute, t.stepExchange
	clear(errs)
	var wg sync.WaitGroup
	for li, w := range t.ranks {
		wg.Add(1)
		go func(li, w int) {
			defer wg.Done()
			c0 := t.tracer.Now()
			start := time.Now()
			shard := batch[w*len(batch)/k : (w+1)*len(batch)/k]
			x, labels := train.GatherInto(t.stepX[li], t.stepLabels[li], shard)
			t.stepX[li], t.stepLabels[li] = x, labels
			net := t.replicas[li]
			net.ZeroGrads()
			loss := t.losses[li]
			losses[li] = loss.Forward(net.Forward(x, true), labels)
			net.Backward(loss.Backward(labels))
			compute[li] = time.Since(start)
			t.tracer.Record(w, obs.PhaseCompute, "step", -1, 0, c0, int64(compute[li]))
			// Exchange every tensor in one call; the barrier span covers
			// the whole blocking exchange, the reducer's fine spans break
			// it down, and the remainder is straggler wait.
			grads := t.stepGrads[li][:0]
			for _, p := range net.Params() {
				grads = append(grads, p.Grad.Data)
			}
			t.stepGrads[li] = grads
			e0 := t.tracer.Now()
			exchStart := time.Now()
			if err := t.reducer.ReduceAll(w, grads); err != nil {
				errs[li] = err
				return
			}
			exchange[li] = time.Since(exchStart)
			t.tracer.Record(w, obs.PhaseBarrier, "exchange", -1, 0, e0, int64(exchange[li]))
			// Average over workers — the paper's x ← x − (η/K)·Σ g̃ —
			// inside the optimiser's one update pass, which stores the
			// averaged gradient back. Clipping bounds the norm of the
			// averaged gradient, so with a clip the average is its own
			// pass before it and the update multiplies by 1.
			avg := float32(1)
			if k > 1 {
				avg = 1 / float32(k)
			}
			if t.cfg.ClipNorm > 0 {
				if avg != 1 {
					for _, p := range net.Params() {
						p.Grad.Scale(avg)
					}
				}
				nn.ClipGradNorm(net.Params(), t.cfg.ClipNorm)
				avg = 1
			}
			t.opts[li].StepScaled(avg)
		}(li, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	t.recordStep(compute, exchange)
	var sum float64
	for _, l := range losses {
		sum += l
	}
	mean := sum / float64(len(t.ranks))
	if every := t.cfg.TelemetryEvery; every > 0 {
		if step := t.currentStep(); step%int64(every) == 0 {
			t.captureTelemetry(step, mean, compute[0], exchange[0])
		}
	}
	return mean, nil
}

// recordStep folds one completed step's local timings — and, in
// cluster mode, the freshest peer reports the heartbeats carried —
// into the straggler report, and hands the local timing to the health
// plane for the next outgoing heartbeat.
func (t *Trainer) recordStep(compute, exchange []time.Duration) {
	t.statsMu.Lock()
	t.stepIdx++
	step := t.stepIdx
	t.statsMu.Unlock()
	k := t.cfg.Workers
	s := StepStats{
		Step:     step,
		Compute:  make([]time.Duration, k),
		Exchange: make([]time.Duration, k),
		Known:    make([]bool, k),
		Slowest:  -1,
	}
	for li, w := range t.ranks {
		s.Compute[w], s.Exchange[w], s.Known[w] = compute[li], exchange[li], true
	}
	if t.monitor != nil {
		local := t.ranks[0]
		t.monitor.ReportStep(health.StepReport{
			Step:     step,
			Compute:  s.Compute[local],
			Exchange: s.Exchange[local],
		})
		for p := 0; p < k; p++ {
			if s.Known[p] {
				continue
			}
			if rep, ok := t.monitor.Report(p); ok {
				s.Compute[p], s.Exchange[p], s.Known[p] = rep.Compute, rep.Exchange, true
			}
		}
	}
	// Attribute by compute time: in a blocking collective the other
	// ranks' exchange timers absorb the wait for the straggler, so the
	// compute+exchange sums are nearly equal across ranks and carry no
	// signal. The last rank to finish computing is the one gating the
	// barrier — matching the simulator's attribution.
	var worst time.Duration
	for p := 0; p < k; p++ {
		if s.Known[p] && (s.Slowest < 0 || s.Compute[p] > worst) {
			worst = s.Compute[p]
			s.Slowest = p
		}
	}
	for li := range t.ranks {
		t.computeHist.Observe(int64(compute[li]))
		t.exchangeHist.Observe(int64(exchange[li]))
	}
	// Publish the snapshot; the stored value is never mutated again.
	t.lastStats.Store(&s)
}

// Evaluate returns top-1 accuracy of the canonical replica on ds.
func (t *Trainer) Evaluate(ds *data.Dataset) float64 {
	return t.EvaluateKs(ds, 1)[0]
}

// EvaluateKs returns top-k accuracy of the canonical replica on ds for
// each requested k in a single pass (the paper reports top-1 and
// top-5).
func (t *Trainer) EvaluateKs(ds *data.Dataset, ks ...int) []float64 {
	const evalBatch = 256
	net := t.replicas[0]
	correct := make([]int, len(ks))
	total := 0
	for start := 0; start < ds.Len(); start += evalBatch {
		end := start + evalBatch
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, labels := ds.Gather(idx)
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
	ref := t.replicas[0].Params()
	for w := 1; w < len(t.replicas); w++ {
		ps := t.replicas[w].Params()
		for i, p := range ps {
			for j, v := range p.Value.Data {
				if v != ref[i].Value.Data[j] {
					return false
				}
			}
		}
	}
	return true
}
