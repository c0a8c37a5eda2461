package sim

import (
	"fmt"
	"math"
	"sort"

	"repro/comm"
	"repro/internal/workload"
	"repro/quant"
	"repro/rng"
)

// Cluster-scale simulation: RunScenario executes a Scenario on the
// discrete-event engine, modelling each synchronous step as the DAG
//
//	compute(r) → quantise(r) → transfer(r) ─┐
//	   (for every rank r)                   ├→ barrier → next step
//	compute(r') → quantise(r') → ...       ─┘
//
// The rank whose transfer finishes last gates the barrier — the
// step's straggler. Compute time is anchored to the same calibrated
// throughput the single-exchange model uses; exchange bytes go through
// comm.WireBytes so simulated volumes match live TCP measurements
// exactly; transfer time flows through the Topology's link classes.
//
// A FailureEvent suspends the DAG mid-step and replays the live
// subsystems' recovery analytically: the victim dies during compute,
// survivors finish quantising and then block in the exchange, the
// failure detector's hard deadline expires, the coordinated abort
// unblocks everyone, the re-rendezvous admits a replacement, the donor
// streams the session snapshot (weights + velocity, 2× the raw model
// volume), and the interrupted step re-runs from scratch. The aborted
// attempt's partial exchange contributes zero bytes — matching the
// live stack, where the aborted fabric incarnation's counters are
// folded away on rejoin.

// Distribution summarises step times in integer nanoseconds
// (nearest-rank percentiles), keeping golden datasets byte-exact.
type Distribution struct {
	MinNS  int64 `json:"min_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
	MeanNS int64 `json:"mean_ns"`
}

// RankGating attributes barrier-gating to one rank.
type RankGating struct {
	Rank int `json:"rank"`
	// GatedSteps counts the completed steps this rank gated.
	GatedSteps int `json:"gated_steps"`
	// FactorMilli is the rank's straggler factor ×1000, rounded.
	FactorMilli int64 `json:"factor_milli"`
}

// RejoinCost breaks down one analytic failure-recovery episode.
type RejoinCost struct {
	Step int `json:"step"`
	Rank int `json:"rank"`
	// DetectNS is death → failure-detector verdict (the heartbeat
	// hard deadline).
	DetectNS int64 `json:"detect_ns"`
	// RendezvousNS covers the coordinated abort, quiesce and
	// re-rendezvous round trips.
	RendezvousNS int64 `json:"rendezvous_ns"`
	// TransferNS is the donor's snapshot stream to the replacement.
	TransferNS int64 `json:"transfer_ns"`
	// SnapshotBytes is the streamed state volume.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// TotalNS is death → the interrupted step restarting.
	TotalNS int64 `json:"total_ns"`
}

// RankSummary is one rank's timeline totals.
type RankSummary struct {
	Rank int `json:"rank"`
	// ComputeNS, QuantNS and CommNS are the rank's cumulative phase
	// times; BlockedNS is time spent waiting at barriers (or blocked
	// in an aborted exchange) for other ranks.
	ComputeNS  int64 `json:"compute_ns"`
	QuantNS    int64 `json:"quant_ns"`
	CommNS     int64 `json:"comm_ns"`
	BlockedNS  int64 `json:"blocked_ns"`
	GatedSteps int   `json:"gated_steps"`
}

// maxPerRankSummary caps the worlds that carry full per-rank timelines
// in the result; larger worlds summarise through TopStragglers.
const maxPerRankSummary = 64

// ClusterResult is one simulated session's summary. Every field is
// integer- or string-valued so golden datasets compare byte-for-byte.
type ClusterResult struct {
	Name  string `json:"name"`
	Seed  uint64 `json:"seed"`
	Ranks int    `json:"ranks"`
	// StepsCompleted counts completed synchronous steps; it falls
	// short of the scenario's Steps only when a non-rejoin failure
	// aborted the session (AbortedAtStep marks where).
	StepsCompleted int `json:"steps_completed"`
	AbortedAtStep  int `json:"aborted_at_step,omitempty"`
	// Events is the number of discrete events fired.
	Events int64 `json:"events"`
	// MakespanNS is the logical end-to-end session time.
	MakespanNS int64 `json:"makespan_ns"`
	// StepNS distributes completed step durations (a failed step's
	// duration includes its whole recovery episode).
	StepNS Distribution `json:"step_ns"`
	// ExchangeBytesPerStep is the exact fabric volume of one completed
	// exchange (comm wire-byte arithmetic); TotalExchangeBytes is that
	// times the completed exchanges. Aborted attempts contribute zero.
	ExchangeBytesPerStep int64 `json:"exchange_bytes_per_step"`
	TotalExchangeBytes   int64 `json:"total_exchange_bytes"`
	// SlowestRank is the rank that gated the most completed steps
	// (ties resolve to the lowest rank; -1 when no step completed) —
	// the simulated counterpart of parallel.EpochStats.SlowestRank.
	SlowestRank int `json:"slowest_rank"`
	// TopStragglers ranks the worst barrier-gaters (up to five).
	TopStragglers []RankGating `json:"top_stragglers,omitempty"`
	// Rejoins lists each recovery episode's cost breakdown.
	Rejoins []RejoinCost `json:"rejoins,omitempty"`
	// PerRank carries full rank timelines for worlds of up to 64
	// ranks; larger worlds omit it.
	PerRank []RankSummary `json:"per_rank,omitempty"`
	// TraceHash fingerprints the full event trace; two runs are
	// event-identical iff their hashes match.
	TraceHash string `json:"trace_hash"`
}

// runner holds one simulation's state while the engine drains.
type runner struct {
	sc   Scenario
	eng  *Engine
	k    int
	topo *Topology

	// Per-rank static pricing (straggler factors applied).
	factors []float64
	baseNS  []int64 // calibrated compute per step
	quantNS []int64
	commNS  []int64

	jitter  *rng.RNG
	replay  [][]float64
	failAt  map[int]*FailureEvent
	perStep int64 // exchange bytes per completed step

	// Replacement-hardware pricing and snapshot volume for rejoins.
	freshBaseNS   int64
	freshQuantNS  int64
	snapshotBytes int64

	// Per-attempt barrier state.
	attempt   int
	stepStart int64 // original start of the running step (survives re-runs)
	ready     int
	gateRank  int
	gateAt    int64
	finish    []int64 // per-rank phase-finish times this attempt (-1 unset)

	// Pending-recovery state of a failed attempt: the re-run starts
	// only when the rejoin timeline has played out AND every survivor
	// has parked at the rejoin barrier (quiesced), like the live
	// protocol's barrier.
	parked      int
	rejoinReady bool
	pendingRes  RejoinCost
	pendingStep int

	// Accumulators.
	stepDur   []int64
	gated     []int
	compTot   []int64
	quantTot  []int64
	commTot   []int64
	blockTot  []int64
	rejoins   []RejoinCost
	exchanges int64
	aborted   int
	doneNS    int64
}

// RunScenario simulates the scenario and returns its summary.
func RunScenario(sc Scenario) (*ClusterResult, error) {
	res, _, err := RunScenarioTrace(sc, false)
	return res, err
}

// RunScenarioTrace is RunScenario with an optional retained event
// trace (per-rank timelines for the CLI and the determinism tests).
func RunScenarioTrace(sc Scenario, keepTrace bool) (*ClusterResult, []Event, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	prim, err := comm.ParsePrimitive(sc.Primitive)
	if err != nil {
		return nil, nil, err
	}
	machineName := sc.Machine
	if machineName == "" {
		machineName = "EC2-P2"
	}
	m, err := workload.MachineByName(machineName)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	netName := sc.Network
	if netName == "" {
		netName = "AlexNet"
	}
	net, err := workload.NetworkByName(netName)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	infos, err := sc.tensorInfos()
	if err != nil {
		return nil, nil, err
	}
	policyStr := sc.Policy
	if policyStr == "" {
		policyStr = "32bit"
	}
	policy, err := quant.ParsePolicy(policyStr)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: %w", err)
	}
	plan := quant.NewPlan(policy, infos)
	k := sc.Ranks

	// Compute anchor: the calibrated per-sample time of the scenario's
	// network (AlexNet when only synthetic tensors are given) on the
	// machine's GPU — the same anchor Run uses.
	perRank := sc.PerRankBatch
	if perRank == 0 {
		perRank = 32
	}
	sampleSec := 1 / (net.ThroughputK80 * net.SampleSpeedup(perRank) * m.GPU.ComputeScale)
	baseComputeNS := int64(math.Round(float64(perRank) * sampleSec * 1e9))
	baseQuantNS := int64(math.Round(quantTime(plan, infos, prim, m.GPU.ComputeScale) * 1e9))

	// Exchange volume: exact accounting through the shared comm
	// arithmetic, and a per-rank transfer share for the link model.
	perStepBytes := int64(0)
	var perRankXferBytes float64
	if k > 1 {
		perStepBytes = exchangeBytes(plan, infos, prim, k, sc.Framed)
		switch prim {
		case comm.MPI:
			perRankXferBytes = float64(perStepBytes) / float64(k)
		case comm.NCCL:
			// A ring peer transmits 2(K−1)/K of one buffer; time is
			// priced on the plan's encoded model copy, the paper's
			// low-precision NCCL accounting.
			wireCopy := plan.WireBytes()
			if sc.Framed {
				raw := exchangeBytes(plan, infos, comm.NCCL, k, false)
				wireCopy += (perStepBytes - raw) / int64(2*(k-1))
			}
			perRankXferBytes = 2 * float64(k-1) / float64(k) * float64(wireCopy)
		}
	}

	topo := sc.Topology
	if topo == nil {
		link := m.MPI
		if prim == comm.NCCL {
			link = m.NCCL
		}
		topo = defaultTopology(LinkParams{GBps: link.BaseGBps, LatencyUS: link.LatencyPerMsg * 1e6})
	}

	root := rng.New(sc.Seed)
	stragglerRng := root.Fork(1)
	r := &runner{
		sc:       sc,
		eng:      NewEngine(keepTrace),
		k:        k,
		topo:     topo,
		factors:  make([]float64, k),
		baseNS:   make([]int64, k),
		quantNS:  make([]int64, k),
		commNS:   make([]int64, k),
		jitter:   root.Fork(2),
		replay:   sc.ReplayComputeMS,
		failAt:   map[int]*FailureEvent{},
		perStep:  perStepBytes,
		finish:   make([]int64, k),
		gated:    make([]int, k),
		compTot:  make([]int64, k),
		quantTot: make([]int64, k),
		commTot:  make([]int64, k),
		blockTot: make([]int64, k),
	}
	for i := range sc.Failures {
		f := sc.Failures[i]
		r.failAt[f.Step] = &f
	}
	// Persistent straggler factors, drawn in rank order from the
	// seeded stream, with named overrides applied after.
	for rank := 0; rank < k; rank++ {
		r.factors[rank] = drawFactor(sc.Stragglers, stragglerRng)
	}
	if sc.Stragglers != nil {
		for _, sr := range sc.Stragglers.Slow {
			r.factors[sr.Rank] = sr.Factor
		}
	}
	for rank := 0; rank < k; rank++ {
		f := r.factors[rank]
		r.baseNS[rank] = int64(math.Round(float64(baseComputeNS) * f))
		r.quantNS[rank] = int64(math.Round(float64(baseQuantNS) * f))
		if k > 1 {
			r.commNS[rank] = topo.rankCommNS(rank, k, len(infos), perRankXferBytes)
		}
	}

	// Replacement ranks run on fresh (factor-1) hardware; the snapshot
	// they receive is weights + optimizer velocity (the elastic
	// package's dominant payload) plus a fixed header.
	r.freshBaseNS = baseComputeNS
	r.freshQuantNS = baseQuantNS
	r.snapshotBytes = 2*plan.RawBytes() + 64

	r.startStep(1, false)
	events := r.eng.Run()

	return r.summarise(events), r.eng.Trace(), nil
}

// drawFactor draws one rank's persistent slowdown factor (≥ 1).
func drawFactor(s *StragglerModel, rg *rng.RNG) float64 {
	if s == nil {
		return 1
	}
	switch s.Dist {
	case "lognormal":
		return math.Exp(s.Sigma * math.Abs(float64(rg.Norm(1))))
	case "uniform":
		return 1 + (s.Max-1)*rg.Float64()
	default:
		return 1
	}
}

// jitterNS draws one per-rank per-step arrival delay.
func (r *runner) jitterNS() int64 {
	j := r.sc.Jitter
	if j == nil {
		return 0
	}
	switch j.Dist {
	case "uniform":
		return int64(math.Round(r.jitter.Float64() * j.MaxMS * 1e6))
	case "exp":
		u := r.jitter.Float64()
		return int64(math.Round(-j.MeanMS * 1e6 * math.Log(1-u)))
	default:
		return 0
	}
}

// computeDurNS returns rank's compute time for a step: replayed when
// the scenario carries a schedule for it, calibrated otherwise, with
// the straggler factor applied either way.
func (r *runner) computeDurNS(step, rank int) int64 {
	if step-1 < len(r.replay) {
		return int64(math.Round(r.replay[step-1][rank] * 1e6 * r.factors[rank]))
	}
	return r.baseNS[rank]
}

// startStep schedules one step's per-rank DAG chains. rerun re-enters
// a step after a rejoin: the step keeps its original start time (its
// recorded duration spans the recovery) and the failure is spent.
func (r *runner) startStep(step int, rerun bool) {
	now := r.eng.Now()
	if !rerun {
		r.stepStart = now
	}
	r.attempt++
	attempt := r.attempt
	r.ready = 0
	r.gateRank = -1
	r.gateAt = -1
	for i := range r.finish {
		r.finish[i] = -1
	}
	fail := r.failAt[step]
	if rerun {
		fail = nil
	}
	r.parked = 0
	r.rejoinReady = false

	for rank := 0; rank < r.k; rank++ {
		rank := rank
		jit := r.jitterNS()
		comp := r.computeDurNS(step, rank)
		if fail != nil && rank == fail.Rank {
			// The victim dies AtFrac of the way through its compute
			// (0 = right at step entry) and its chain ends there.
			dead := now + jit + int64(math.Round(fail.AtFrac*float64(comp)))
			f := *fail
			r.eng.Schedule(dead, "death", rank, step, func() {
				r.onDeath(step, f)
			})
			continue
		}
		blocked := fail != nil
		compDone := now + jit + comp
		r.eng.Schedule(compDone, "compute", rank, step, func() {
			r.compTot[rank] += comp
			quantDone := r.eng.Now() + r.quantNS[rank]
			r.eng.Schedule(quantDone, "quant", rank, step, func() {
				r.quantTot[rank] += r.quantNS[rank]
				if blocked {
					if attempt != r.attempt {
						return // stale: the attempt was already replaced
					}
					// The exchange can never complete this attempt:
					// the rank parks at the rejoin barrier until the
					// recovery timeline releases it.
					r.finish[rank] = r.eng.Now()
					r.parked++
					r.maybeResume(step)
					return
				}
				xferDone := r.eng.Now() + r.commNS[rank]
				r.eng.Schedule(xferDone, "xfer", rank, step, func() {
					r.onTransferDone(step, attempt, rank)
				})
			})
		})
	}
}

// onTransferDone is one rank's collective share finishing; the last
// arrival gates the barrier.
func (r *runner) onTransferDone(step, attempt, rank int) {
	if attempt != r.attempt {
		return // stale event from an aborted attempt
	}
	r.commTot[rank] += r.commNS[rank]
	now := r.eng.Now()
	r.finish[rank] = now
	// Strict >: simultaneous finishers fire in rank order, so the
	// lowest rank among them is charged, deterministically.
	if now > r.gateAt {
		r.gateRank = rank
		r.gateAt = now
	}
	r.ready++
	if r.ready == r.k {
		r.eng.Schedule(now, "barrier", -1, step, func() {
			r.onBarrier(step)
		})
	}
}

// onBarrier completes a step: accounting, then the next step.
func (r *runner) onBarrier(step int) {
	now := r.eng.Now()
	r.stepDur = append(r.stepDur, now-r.stepStart)
	if r.gateRank >= 0 {
		r.gated[r.gateRank]++
	}
	for rank, fin := range r.finish {
		if fin >= 0 && now > fin {
			r.blockTot[rank] += now - fin
		}
	}
	r.exchanges++
	r.doneNS = now
	if step < r.sc.Steps {
		r.startStep(step+1, false)
	}
}

// onDeath walks the recovery timeline from a victim's death: the
// failure detector's hard silence deadline, then abort or rejoin.
func (r *runner) onDeath(step int, f FailureEvent) {
	hb := f.HeartbeatTimeoutMS
	if hb == 0 {
		hb = 1000
	}
	detectNS := int64(math.Round(hb * 1e6))
	deathNS := r.eng.Now()
	r.eng.After(detectNS, "detect", f.Rank, step, func() {
		// Recovery control traffic rides the topology's slowest class.
		lat := r.topo.Intra.LatencyUS
		bw := r.topo.Intra.GBps * 1e9
		if r.topo.hosts(r.k) > 1 {
			lat = math.Max(lat, r.topo.Inter.LatencyUS)
			bw = math.Min(bw, r.topo.uplink())
		}
		latNS := int64(math.Round(lat * 1e3))
		abortNS := 2 * latNS // verdict broadcast + quiesce
		if !f.Rejoin {
			r.eng.After(abortNS, "abort", -1, step, func() {
				now := r.eng.Now()
				for rank, fin := range r.finish {
					if fin >= 0 && now > fin {
						r.blockTot[rank] += now - fin
					}
				}
				r.aborted = step
				r.doneNS = now
			})
			return
		}
		rendezvousNS := abortNS + 6*latNS // hello, welcome, mesh preamble round trips
		transferNS := int64(math.Round(float64(r.snapshotBytes)/bw*1e9)) + latNS
		r.pendingStep = step
		r.pendingRes = RejoinCost{
			Step: step, Rank: f.Rank,
			DetectNS:      detectNS,
			RendezvousNS:  rendezvousNS,
			TransferNS:    transferNS,
			SnapshotBytes: r.snapshotBytes,
		}
		r.eng.After(rendezvousNS+transferNS, "rejoin", f.Rank, step, func() {
			// The replacement runs on fresh hardware: factor 1
			// (keeping the calibrated anchor), same link position.
			r.factors[f.Rank] = 1
			r.baseNS[f.Rank] = r.freshBaseNS
			r.quantNS[f.Rank] = r.freshQuantNS
			r.pendingRes.TotalNS = r.eng.Now() - deathNS
			r.rejoinReady = true
			r.maybeResume(step)
		})
	})
}

// maybeResume re-enters a failed step once the rejoin timeline has
// played out and every survivor has parked at the rejoin barrier —
// whichever happens last sets the resume time.
func (r *runner) maybeResume(step int) {
	if !r.rejoinReady || r.parked != r.k-1 {
		return
	}
	now := r.eng.Now()
	for rank, fin := range r.finish {
		if fin >= 0 && now > fin {
			r.blockTot[rank] += now - fin
		}
	}
	r.rejoins = append(r.rejoins, r.pendingRes)
	r.startStep(step, true)
}

// summarise folds the accumulators into the result.
func (r *runner) summarise(events int64) *ClusterResult {
	res := &ClusterResult{
		Name:                 r.sc.Name,
		Seed:                 r.sc.Seed,
		Ranks:                r.k,
		StepsCompleted:       len(r.stepDur),
		AbortedAtStep:        r.aborted,
		Events:               events,
		MakespanNS:           r.doneNS,
		ExchangeBytesPerStep: r.perStep,
		TotalExchangeBytes:   r.perStep * r.exchanges,
		SlowestRank:          -1,
		TraceHash:            r.eng.TraceHash(),
	}
	if n := len(r.stepDur); n > 0 {
		sorted := append([]int64(nil), r.stepDur...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		pct := func(q float64) int64 {
			i := int(math.Ceil(q*float64(n))) - 1
			if i < 0 {
				i = 0
			}
			return sorted[i]
		}
		var sum int64
		for _, d := range sorted {
			sum += d
		}
		res.StepNS = Distribution{
			MinNS: sorted[0], P50NS: pct(0.50), P90NS: pct(0.90),
			P99NS: pct(0.99), MaxNS: sorted[n-1], MeanNS: sum / int64(n),
		}
	}
	best, bestCount := -1, 0
	var gaters []RankGating
	for rank, n := range r.gated {
		if n == 0 {
			continue
		}
		gaters = append(gaters, RankGating{
			Rank: rank, GatedSteps: n,
			FactorMilli: int64(math.Round(r.factors[rank] * 1000)),
		})
		if n > bestCount {
			best, bestCount = rank, n
		}
	}
	res.SlowestRank = best
	sort.Slice(gaters, func(i, j int) bool {
		if gaters[i].GatedSteps != gaters[j].GatedSteps {
			return gaters[i].GatedSteps > gaters[j].GatedSteps
		}
		return gaters[i].Rank < gaters[j].Rank
	})
	if len(gaters) > 5 {
		gaters = gaters[:5]
	}
	res.TopStragglers = gaters
	res.Rejoins = r.rejoins
	if r.k <= maxPerRankSummary {
		res.PerRank = make([]RankSummary, r.k)
		for rank := 0; rank < r.k; rank++ {
			res.PerRank[rank] = RankSummary{
				Rank:       rank,
				ComputeNS:  r.compTot[rank],
				QuantNS:    r.quantTot[rank],
				CommNS:     r.commTot[rank],
				BlockedNS:  r.blockTot[rank],
				GatedSteps: r.gated[rank],
			}
		}
	}
	return res
}
