package sim

import (
	"reflect"
	"testing"

	"repro/comm"
	"repro/internal/workload"
	"repro/quant"
)

// mustScenario loads a checked-in scenario.
func mustScenario(t testing.TB, name string) Scenario {
	t.Helper()
	sc, err := LoadScenario("testdata/" + name + ".json")
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func mustRunScenario(t testing.TB, sc Scenario) *ClusterResult {
	t.Helper()
	res, err := RunScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestScenarioDeterminism: same seed, same trace, same summary — the
// engine's core invariant, asserted on the 1024-rank scenario that
// exercises every generator at once (topology, stragglers, jitter,
// failure/rejoin).
func TestScenarioDeterminism(t *testing.T) {
	sc := mustScenario(t, "mega_1024")
	a := mustRunScenario(t, sc)
	b := mustRunScenario(t, sc)
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed produced different traces: %s vs %s", a.TraceHash, b.TraceHash)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different summaries:\n%+v\n%+v", a, b)
	}

	// The retained trace is the hashed trace: replaying with the trace
	// kept must not change a single draw.
	c, trace, err := RunScenarioTrace(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if c.TraceHash != a.TraceHash {
		t.Fatalf("keeping the trace changed the trace: %s vs %s", c.TraceHash, a.TraceHash)
	}
	if int64(len(trace)) != c.Events {
		t.Fatalf("trace has %d events, summary counted %d", len(trace), c.Events)
	}

	// And the seed must matter: a different seed reshuffles the world.
	sc.Seed++
	d := mustRunScenario(t, sc)
	if d.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestMegaScenarioRecovery: the ≥1000-rank acceptance scenario — 1024
// ranks, lognormal stragglers, a mid-session failure — must survive its
// failure through the rejoin path and finish every step, with the
// pinned straggler named by the attribution.
func TestMegaScenarioRecovery(t *testing.T) {
	sc := mustScenario(t, "mega_1024")
	if sc.Ranks < 1000 {
		t.Fatalf("acceptance scenario has %d ranks, want >= 1000", sc.Ranks)
	}
	res := mustRunScenario(t, sc)
	if res.StepsCompleted != sc.Steps || res.AbortedAtStep != 0 {
		t.Fatalf("rejoin scenario should finish all %d steps, got %d (aborted at %d)",
			sc.Steps, res.StepsCompleted, res.AbortedAtStep)
	}
	if len(res.Rejoins) != 1 {
		t.Fatalf("want exactly one rejoin episode, got %d", len(res.Rejoins))
	}
	rj := res.Rejoins[0]
	if rj.Step != 11 || rj.Rank != 137 {
		t.Errorf("rejoin attributed to step %d rank %d, want step 11 rank 137", rj.Step, rj.Rank)
	}
	if rj.DetectNS <= 0 || rj.RendezvousNS <= 0 || rj.TransferNS <= 0 || rj.SnapshotBytes <= 0 {
		t.Errorf("rejoin cost has non-positive components: %+v", rj)
	}
	if rj.TotalNS < rj.DetectNS+rj.RendezvousNS+rj.TransferNS {
		t.Errorf("rejoin total %d ns below the sum of its parts", rj.TotalNS)
	}
	if res.SlowestRank != 777 {
		t.Errorf("slowest rank %d, want the pinned 3× straggler 777", res.SlowestRank)
	}
	if len(res.TopStragglers) == 0 || res.TopStragglers[0].Rank != 777 {
		t.Errorf("top straggler attribution %+v, want rank 777 first", res.TopStragglers)
	}
	// The failed step's duration spans the whole recovery episode: at
	// least a typical step plus (most of) the rejoin timeline.
	if res.StepNS.MaxNS < res.StepNS.P50NS+rj.TotalNS*9/10 {
		t.Errorf("recovery step %d ns should carry the rejoin cost on top of the median %d ns (rejoin %d ns)",
			res.StepNS.MaxNS, res.StepNS.P50NS, rj.TotalNS)
	}
	if res.PerRank != nil {
		t.Error("1024-rank result should omit per-rank timelines")
	}

	// Removing the failure must shorten the session.
	clean := sc
	clean.Failures = nil
	if cres := mustRunScenario(t, clean); cres.MakespanNS >= res.MakespanNS {
		t.Errorf("failure-free makespan %d ns not below failed one %d ns", cres.MakespanNS, res.MakespanNS)
	}
}

// TestAbortScenario: a non-rejoin failure ends the session in a
// coordinated abort at detection time.
func TestAbortScenario(t *testing.T) {
	sc := mustScenario(t, "abort_8")
	res := mustRunScenario(t, sc)
	if res.AbortedAtStep != 5 {
		t.Fatalf("aborted at step %d, want 5", res.AbortedAtStep)
	}
	if res.StepsCompleted != 4 {
		t.Fatalf("completed %d steps before the abort, want 4", res.StepsCompleted)
	}
	if len(res.Rejoins) != 0 {
		t.Fatalf("abort must not record a rejoin, got %+v", res.Rejoins)
	}
	if res.TotalExchangeBytes != res.ExchangeBytesPerStep*4 {
		t.Fatalf("aborted attempt leaked exchange bytes: total %d, per-step %d × 4 completed",
			res.TotalExchangeBytes, res.ExchangeBytesPerStep)
	}
}

// TestClusterExchangeBytesMatchTCP is the cross-validation headline:
// for the checked-in 3-rank scenarios, the cluster simulator's
// per-step exchange bytes must equal — byte for byte — what a live
// loopback TCP exchange of the same tensors under the same policy and
// primitive puts on the wire.
func TestClusterExchangeBytesMatchTCP(t *testing.T) {
	for _, name := range []string{"tcp_parity_mpi_3", "tcp_parity_ring_3"} {
		t.Run(name, func(t *testing.T) {
			sc := mustScenario(t, name)
			if sc.Ranks < 2 || sc.Ranks > 4 {
				t.Fatalf("cross-validation scenario has %d ranks, want 2..4", sc.Ranks)
			}
			res := mustRunScenario(t, sc)

			infos, err := sc.tensorInfos()
			if err != nil {
				t.Fatal(err)
			}
			prim, err := comm.ParsePrimitive(sc.Primitive)
			if err != nil {
				t.Fatal(err)
			}
			measured := measureTCPExchange(t, prim, quant.MustParsePolicy(sc.Policy),
				workload.Network{Name: sc.Name, Tensors: infos}, sc.Ranks)
			if res.ExchangeBytesPerStep != measured {
				t.Errorf("simulator predicts %d exchange bytes per step, TCP moved %d",
					res.ExchangeBytesPerStep, measured)
			}
			if want := measured * int64(sc.Steps); res.TotalExchangeBytes != want {
				t.Errorf("session total %d bytes, want %d (%d steps × measured exchange)",
					res.TotalExchangeBytes, want, sc.Steps)
			}
		})
	}
}

// TestClusterMatchesSingleExchangeBytes: on a flat default topology the
// cluster simulator and the single-exchange model must agree exactly on
// exchange volume — they share the comm wire-byte arithmetic.
func TestClusterMatchesSingleExchangeBytes(t *testing.T) {
	sc := Scenario{Name: "agree", Ranks: 8, Steps: 3, Policy: "qsgd4b512"}
	res := mustRunScenario(t, sc)
	single, err := Run(Config{Network: workload.AlexNet, Machine: workload.EC2P2,
		Primitive: comm.MPI, Policy: quant.MustParsePolicy("qsgd4b512"), GPUs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExchangeBytesPerStep != single.ExchangeBytes {
		t.Fatalf("cluster per-step bytes %d != single-exchange %d",
			res.ExchangeBytesPerStep, single.ExchangeBytes)
	}
}

// TestStragglerGatesBarrier: a pinned slow rank must be charged with
// gating and named SlowestRank.
func TestStragglerGatesBarrier(t *testing.T) {
	sc := Scenario{
		Name: "one-slow", Ranks: 4, Steps: 10,
		Stragglers: &StragglerModel{Slow: []SlowRank{{Rank: 2, Factor: 4}}},
	}
	res := mustRunScenario(t, sc)
	if res.SlowestRank != 2 {
		t.Fatalf("slowest rank %d, want 2", res.SlowestRank)
	}
	if res.TopStragglers[0].Rank != 2 || res.TopStragglers[0].GatedSteps != 10 {
		t.Fatalf("rank 2 should gate all 10 steps, got %+v", res.TopStragglers)
	}
	if res.TopStragglers[0].FactorMilli != 4000 {
		t.Fatalf("factor %d milli, want 4000", res.TopStragglers[0].FactorMilli)
	}
	// Everyone else's blocked time is positive; the straggler's is zero.
	for _, pr := range res.PerRank {
		if pr.Rank == 2 && pr.BlockedNS != 0 {
			t.Errorf("the straggler itself should never wait, blocked %d ns", pr.BlockedNS)
		}
		if pr.Rank != 2 && pr.BlockedNS == 0 {
			t.Errorf("rank %d should block on the straggler", pr.Rank)
		}
	}
}

// TestOversubscriptionSlowsExchange: squeezing the host uplink must
// stretch the makespan and nothing else — exchange bytes stay put.
func TestOversubscriptionSlowsExchange(t *testing.T) {
	base := Scenario{
		Name: "flat", Ranks: 16, Steps: 5,
		Topology: &Topology{
			RanksPerHost: 4,
			Intra:        Link{GBps: 8, LatencyUS: 60},
			Inter:        Link{GBps: 1.2, LatencyUS: 200},
		},
	}
	over := base
	overTopo := *base.Topology
	overTopo.Oversubscription = 8
	over.Topology = &overTopo

	rBase := mustRunScenario(t, base)
	rOver := mustRunScenario(t, over)
	if rOver.MakespanNS <= rBase.MakespanNS {
		t.Fatalf("8:1 oversubscription should slow the session (%d <= %d ns)",
			rOver.MakespanNS, rBase.MakespanNS)
	}
	if rOver.ExchangeBytesPerStep != rBase.ExchangeBytesPerStep {
		t.Fatal("oversubscription must not change exchange bytes")
	}
}

// TestDegradedPairLinkGates: a single degraded pair link makes its
// endpoints the stragglers without touching byte accounting.
func TestDegradedPairLinkGates(t *testing.T) {
	sc := Scenario{
		Name: "bad-nic", Ranks: 8, Steps: 6,
		Topology: &Topology{
			Intra: Link{GBps: 8, LatencyUS: 60},
			Pairs: []PairLink{{A: 1, B: 6, Link: Link{GBps: 0.05, LatencyUS: 500}}},
		},
	}
	res := mustRunScenario(t, sc)
	// Both endpoints pay the degraded link and finish the exchange at
	// the same instant; the deterministic tie-break charges the lowest
	// rank, so rank 1 is named every step.
	if res.SlowestRank != 1 {
		t.Fatalf("slowest rank %d, want 1 (lower endpoint of the degraded pair)", res.SlowestRank)
	}
	if res.PerRank[6].CommNS != res.PerRank[1].CommNS {
		t.Fatalf("both endpoints should pay the degraded link equally (%d vs %d ns)",
			res.PerRank[6].CommNS, res.PerRank[1].CommNS)
	}
	if res.PerRank[1].CommNS <= 10*res.PerRank[0].CommNS {
		t.Fatalf("degraded pair comm %d ns should dwarf a healthy rank's %d ns",
			res.PerRank[1].CommNS, res.PerRank[0].CommNS)
	}
}

// TestReplayedComputeDrivesTimeline: a replayed measured schedule
// overrides the calibrated compute model for the replayed prefix.
func TestReplayedComputeDrivesTimeline(t *testing.T) {
	sc := Scenario{
		Name: "replay", Ranks: 2, Steps: 3,
		Tensors: []TensorDim{{Name: "w", Rows: 4, Cols: 4}},
		ReplayComputeMS: [][]float64{
			{100, 1},
			{1, 200},
		},
	}
	res, trace, err := RunScenarioTrace(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepsCompleted != 3 {
		t.Fatalf("completed %d steps, want 3", res.StepsCompleted)
	}
	// Step 1 is gated by rank 0's 100 ms, step 2 by rank 1's 200 ms.
	if res.StepNS.MinNS < 99e6 {
		t.Errorf("replayed step floor %d ns, want >= 99 ms", res.StepNS.MinNS)
	}
	var computes int
	for _, ev := range trace {
		if ev.Kind == "compute" {
			computes++
		}
	}
	if computes != 6 {
		t.Errorf("trace has %d compute events, want 6 (2 ranks × 3 steps)", computes)
	}
}

// TestJitterPerturbsDeterministically: jitter changes the timeline but
// stays reproducible under the seed.
func TestJitterPerturbsDeterministically(t *testing.T) {
	quiet := Scenario{Name: "quiet", Ranks: 8, Steps: 5, Seed: 3}
	noisy := quiet
	noisy.Jitter = &JitterModel{Dist: "uniform", MaxMS: 2}
	rq := mustRunScenario(t, quiet)
	rn := mustRunScenario(t, noisy)
	if rn.MakespanNS <= rq.MakespanNS {
		t.Fatalf("jitter should stretch the makespan (%d <= %d ns)", rn.MakespanNS, rq.MakespanNS)
	}
	if again := mustRunScenario(t, noisy); again.TraceHash != rn.TraceHash {
		t.Fatal("jittered run is not reproducible from its seed")
	}
}

// TestScenarioValidation walks the decoder's rejection surface.
func TestScenarioValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		json string
	}{
		{"no ranks", `{"name":"x","steps":2}`},
		{"too many ranks", `{"ranks":1000000,"steps":2}`},
		{"no steps", `{"ranks":4}`},
		{"unknown field", `{"ranks":4,"steps":2,"bogus":1}`},
		{"trailing data", `{"ranks":4,"steps":2}{"ranks":1}`},
		{"bad primitive", `{"ranks":4,"steps":2,"primitive":"GLOO"}`},
		{"bad policy", `{"ranks":4,"steps":2,"policy":"qsgd999"}`},
		{"bad tensor", `{"ranks":4,"steps":2,"tensors":[{"rows":0,"cols":3}]}`},
		{"slow rank outside world", `{"ranks":4,"steps":2,"stragglers":{"slow":[{"rank":9,"factor":2}]}}`},
		{"slow factor below one", `{"ranks":4,"steps":2,"stragglers":{"slow":[{"rank":1,"factor":0.5}]}}`},
		{"bad straggler dist", `{"ranks":4,"steps":2,"stragglers":{"dist":"pareto"}}`},
		{"bad jitter dist", `{"ranks":4,"steps":2,"jitter":{"dist":"gamma"}}`},
		{"failure step outside run", `{"ranks":4,"steps":2,"failures":[{"step":9,"rank":1}]}`},
		{"failure rank outside world", `{"ranks":4,"steps":2,"failures":[{"step":1,"rank":7}]}`},
		{"failure at_frac one", `{"ranks":4,"steps":2,"failures":[{"step":1,"rank":1,"at_frac":1}]}`},
		{"two failures one step", `{"ranks":4,"steps":2,"failures":[{"step":1,"rank":1},{"step":1,"rank":2}]}`},
		{"replay too long", `{"ranks":2,"steps":1,"replay_compute_ms":[[1,1],[1,1]]}`},
		{"replay row mismatch", `{"ranks":2,"steps":2,"replay_compute_ms":[[1,1,1]]}`},
		{"replay negative", `{"ranks":2,"steps":2,"replay_compute_ms":[[1,-1]]}`},
		{"pair override outside world", `{"ranks":4,"steps":2,"topology":{"intra":{"gbps":1,"latency_us":1},"pairs":[{"a":0,"b":9,"link":{"gbps":1,"latency_us":1}}]}}`},
		{"zero intra bandwidth", `{"ranks":4,"steps":2,"topology":{"intra":{"gbps":0,"latency_us":1}}}`},
	} {
		if _, err := DecodeScenario([]byte(tc.json)); err == nil {
			t.Errorf("%s: decode accepted %s", tc.name, tc.json)
		}
	}
	if _, err := DecodeScenario(make([]byte, MaxScenarioBytes+1)); err == nil {
		t.Error("oversized scenario accepted")
	}
	// Unknown names pass offline validation and fail at run time.
	if _, err := RunScenario(Scenario{Ranks: 2, Steps: 1, Network: "NoSuchNet"}); err == nil {
		t.Error("unknown network accepted at run time")
	}
	if _, err := RunScenario(Scenario{Ranks: 2, Steps: 1, Machine: "NoSuchBox"}); err == nil {
		t.Error("unknown machine accepted at run time")
	}
}
