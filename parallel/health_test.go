package parallel

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/comm"
	"repro/data"
	"repro/health"
	"repro/nn"
	"repro/rng"
)

// smallTask builds a tiny deterministic workload for guard-rail tests.
func smallTask() (func(r *rng.RNG) *nn.Network, *data.Dataset, *data.Dataset) {
	train, test := data.MakeImages(data.ImageConfig{
		Classes: 4, Channels: 1, H: 4, W: 4,
		TrainN: 64, TestN: 32, Noise: 0.7, Seed: 5,
	})
	build := func(r *rng.RNG) *nn.Network {
		return nn.MustNetwork(
			nn.NewDense("fc1", 16, 8, r),
			nn.NewReLU("r1"),
			nn.NewDense("fc2", 8, 4, r),
		)
	}
	return build, train, test
}

// TestStepStatsSingleProcess: with every rank local, the straggler
// report is fully known and attributes a slowest rank each step.
func TestStepStatsSingleProcess(t *testing.T) {
	build, train, test := smallTask()
	tr, err := NewTrainer(build, Config{
		Workers: 4, BatchSize: 16, Epochs: 1, Seed: 9,
		Schedule: nn.ConstantLR(0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if s := tr.StepStats(); s.Step != 0 || s.Slowest != -1 {
		t.Fatalf("pre-run stats %+v, want empty with Slowest -1", s)
	}
	h, err := tr.Run(train, test)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.StepStats()
	if s.Step <= 0 {
		t.Fatalf("no steps recorded: %+v", s)
	}
	if len(s.Compute) != 4 || len(s.Exchange) != 4 || len(s.Known) != 4 {
		t.Fatalf("per-rank slices sized wrong: %+v", s)
	}
	for r, known := range s.Known {
		if !known {
			t.Fatalf("rank %d unknown in a single-process world", r)
		}
	}
	if s.Slowest < 0 || s.Slowest >= 4 {
		t.Fatalf("slowest rank %d out of range", s.Slowest)
	}
	if got := h.Epochs[0].SlowestRank; got < 0 || got >= 4 {
		t.Fatalf("epoch straggler attribution %d out of range", got)
	}
}

// TestStepDeadlineAborts: an impossible step deadline aborts the run
// with the typed error instead of leaving workers blocked in the
// exchange.
func TestStepDeadlineAborts(t *testing.T) {
	build, train, test := smallTask()
	tr, err := NewTrainer(build, Config{
		Workers: 2, BatchSize: 16, Epochs: 1, Seed: 9,
		Schedule: nn.ConstantLR(0.1), UseTCP: true,
		StepDeadline: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, err = tr.Run(train, test)
	var dl ErrStepDeadline
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want an ErrStepDeadline", err)
	}
	if dl.Deadline != time.Nanosecond || dl.Step != 1 {
		t.Fatalf("deadline error %+v, want step 1 at 1ns", dl)
	}
}

// TestMonitorVerdictSurfacesInRun: a health-plane death verdict makes
// Run fail fast with the typed health.ErrPeerDead — the abort
// propagation contract the cluster relies on.
func TestMonitorVerdictSurfacesInRun(t *testing.T) {
	// A 2-rank control mesh; the "peer" (rank 1) never runs a monitor
	// and its socket dies immediately — the EOF path declares it dead.
	a, b := pairedConns(t)
	mon, err := health.NewMonitor(0, 2, []net.Conn{nil, a}, health.Config{
		Interval: 20 * time.Millisecond, Timeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	b.Close()
	select {
	case <-mon.Dead():
	case <-time.After(5 * time.Second):
		t.Fatal("monitor never reached a verdict")
	}

	build, train, test := smallTask()
	tr, err := NewTrainer(build, Config{
		Workers: 2, BatchSize: 16, Epochs: 1, Seed: 9,
		Schedule: nn.ConstantLR(0.1), UseTCP: true,
		Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, err = tr.Run(train, test)
	var dead health.ErrPeerDead
	if !errors.As(err, &dead) {
		t.Fatalf("Run returned %v, want health.ErrPeerDead", err)
	}
	if dead.Rank != 1 {
		t.Fatalf("verdict blames rank %d, want 1", dead.Rank)
	}
}

// TestStepDeadlineChanFabric: the in-process channel fabric cannot be
// interrupted, so a deadline far below one step lets the step finish —
// every replica applies it — and then reports the overrun.
func TestStepDeadlineChanFabric(t *testing.T) {
	build, train, test := smallTask()
	tr, err := NewTrainer(build, Config{
		Workers: 2, BatchSize: 16, Epochs: 1, Seed: 9,
		Schedule:     nn.ConstantLR(0.1),
		StepDeadline: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	_, err = tr.Run(train, test)
	want := ErrStepDeadline{Rank: 0, Step: 1, Deadline: time.Nanosecond}
	if err != want {
		t.Fatalf("Run returned %v, want %v", err, want)
	}
	if s := tr.StepStats(); s.Step != 1 {
		t.Fatalf("step stats record step %d, want the finished step 1", s.Step)
	}
	if !tr.ReplicasInSync() {
		t.Fatal("replicas diverged after a step that overran its deadline")
	}
}

// verdictRun starts Run on rank 0 of a two-rank TCP fabric whose rank 1
// never steps, so the first exchange blocks, with a monitor attached
// outside any cluster session. It closes the monitor's control peer
// once Run is under way and returns the monitor, Run's error channel
// and the moment the peer closed.
func verdictRun(t *testing.T, timeout time.Duration) (*Trainer, *health.Monitor, <-chan error, time.Time) {
	t.Helper()
	a, b := pairedConns(t)
	mon, err := health.NewMonitor(0, 2, []net.Conn{nil, a}, health.Config{
		Interval: 20 * time.Millisecond, Timeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	mon.Start()
	fabric, err := comm.NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	build, train, test := smallTask()
	tr, err := NewTrainer(build, Config{
		Workers: 2, Rank: 0, Fabric: fabric, BatchSize: 16, Epochs: 1, Seed: 9,
		Schedule: nn.ConstantLR(0.1), Monitor: mon,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.Run(train, test)
		done <- err
	}()
	// Let rank 0 reach its first exchange, where it blocks. A verdict
	// that came sooner would fail the step before it starts, which
	// returns the same error, so the sleep only steers which path runs.
	time.Sleep(50 * time.Millisecond)
	closed := time.Now()
	b.Close()
	return tr, mon, done, closed
}

// TestMonitorVerdictInterruptsBlockedStep: a death verdict reached while
// the step is blocked in an exchange unblocks it, and Run returns the
// monitor's verdict value itself — not the transport error the
// interrupted exchange saw — within twice the monitor timeout.
func TestMonitorVerdictInterruptsBlockedStep(t *testing.T) {
	const timeout = 500 * time.Millisecond
	tr, mon, done, closed := verdictRun(t, timeout)
	defer tr.Close()
	select {
	case err := <-done:
		if v := mon.Verdict(); err != v {
			t.Fatalf("Run returned %v, want the monitor's verdict %v", err, v)
		}
		var dead health.ErrPeerDead
		if !errors.As(err, &dead) || dead.Rank != 1 {
			t.Fatalf("Run returned %v, want health.ErrPeerDead{Rank: 1}", err)
		}
		if took := time.Since(closed); took > 2*timeout {
			t.Fatalf("Run took %v after the peer closed, want at most %v", took, 2*timeout)
		}
	case <-time.After(2 * timeout):
		tr.Close() // unblock the stranded exchange before failing
		<-done
		t.Fatalf("Run still blocked %v after the peer closed", 2*timeout)
	}
}

// TestGuardedStepLeaksNoGoroutines: guarded runs that end in success,
// in a deadline and in a verdict leave no goroutine behind once their
// trainers close.
func TestGuardedStepLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	build, train, test := smallTask()
	for _, deadline := range []time.Duration{time.Minute, time.Nanosecond} {
		tr, err := NewTrainer(build, Config{
			Workers: 2, BatchSize: 16, Epochs: 1, Seed: 9,
			Schedule: nn.ConstantLR(0.1), UseTCP: true,
			StepDeadline: deadline,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = tr.Run(train, test)
		tr.Close()
		if deadline == time.Minute && err != nil {
			t.Fatalf("guarded run failed: %v", err)
		}
		var dl ErrStepDeadline
		if deadline == time.Nanosecond && !errors.As(err, &dl) {
			t.Fatalf("Run returned %v, want an ErrStepDeadline", err)
		}
	}
	tr, _, done, _ := verdictRun(t, 500*time.Millisecond)
	var dead health.ErrPeerDead
	if err := <-done; !errors.As(err, &dead) {
		t.Fatalf("Run returned %v, want health.ErrPeerDead", err)
	}
	tr.Close()
	limit := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(limit) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pairedConns builds a connected loopback TCP pair.
func pairedConns(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		t.Fatal(acc.err)
	}
	return dial, acc.c
}
