package health

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// pairConns builds a connected duplex TCP pair over loopback.
func pairConns(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type accepted struct {
		conn net.Conn
		err  error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	dial, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc := <-ch
	if acc.err != nil {
		dial.Close()
		t.Fatal(acc.err)
	}
	return dial, acc.conn
}

// controlMesh wires a fully connected control mesh: conns[r][p] is rank
// r's end of the link to rank p.
func controlMesh(t *testing.T, world int) [][]net.Conn {
	t.Helper()
	conns := make([][]net.Conn, world)
	for r := range conns {
		conns[r] = make([]net.Conn, world)
	}
	for lo := 0; lo < world; lo++ {
		for hi := lo + 1; hi < world; hi++ {
			a, b := pairConns(t)
			conns[lo][hi] = a
			conns[hi][lo] = b
		}
	}
	return conns
}

// startMonitors builds and starts one monitor per rank.
func startMonitors(t *testing.T, conns [][]net.Conn, cfg Config) []*Monitor {
	t.Helper()
	ms := make([]*Monitor, len(conns))
	for r := range conns {
		m, err := NewMonitor(r, len(conns), conns[r], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms[r] = m
	}
	for _, m := range ms {
		m.Start()
	}
	return ms
}

// waitVerdict blocks until m reaches a verdict or the deadline passes.
func waitVerdict(t *testing.T, m *Monitor, within time.Duration) ErrPeerDead {
	t.Helper()
	select {
	case <-m.Dead():
	case <-time.After(within):
		t.Fatalf("no verdict within %v", within)
	}
	var dead ErrPeerDead
	if !errors.As(m.Verdict(), &dead) {
		t.Fatalf("verdict %v is not an ErrPeerDead", m.Verdict())
	}
	return dead
}

// TestMonitorDetectsKilledPeer: closing a rank's sockets out from under
// it (what a SIGKILL does) gives every survivor the same typed verdict,
// with registered handlers run before Dead() releases.
func TestMonitorDetectsKilledPeer(t *testing.T) {
	before := runtime.NumGoroutine()
	conns := controlMesh(t, 3)
	ms := startMonitors(t, conns, Config{Interval: 25 * time.Millisecond, Timeout: 300 * time.Millisecond})

	var handled atomic.Int32
	handlerSawFabricOrder := make([]atomic.Bool, 2)
	for r := 0; r < 2; r++ {
		r := r
		ms[r].OnVerdict(func(err error) {
			var dead ErrPeerDead
			if errors.As(err, &dead) && dead.Rank == 2 {
				handlerSawFabricOrder[r].Store(true)
			}
			handled.Add(1)
		})
	}

	// SIGKILL stand-in: rank 2's ends of both links vanish. Kill stops
	// rank 2's own loops before it closes the links, so its monitor
	// cannot read the first close as a death and broadcast an abort
	// over the second.
	ms[2].Kill()

	for r := 0; r < 2; r++ {
		dead := waitVerdict(t, ms[r], 2*time.Second)
		if dead.Rank != 2 {
			t.Fatalf("rank %d blamed rank %d, want 2", r, dead.Rank)
		}
		if !handlerSawFabricOrder[r].Load() {
			t.Fatalf("rank %d's handler had not run when Dead() released", r)
		}
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handlers ran %d times, want 2", got)
	}

	for _, m := range ms {
		m.Close()
	}
	waitGoroutines(t, before)
}

// TestMonitorKillLooksLikeDeath: Kill severs the control links with no
// parting bye, so peers reach a death verdict — the fault-injection
// hook the elastic-rejoin tests simulate a SIGKILL with — while the
// killed monitor itself shuts down without declaring anyone dead.
func TestMonitorKillLooksLikeDeath(t *testing.T) {
	before := runtime.NumGoroutine()
	conns := controlMesh(t, 3)
	ms := startMonitors(t, conns, Config{Interval: 25 * time.Millisecond, Timeout: 300 * time.Millisecond})

	ms[2].Kill()
	for r := 0; r < 2; r++ {
		if dead := waitVerdict(t, ms[r], 2*time.Second); dead.Rank != 2 {
			t.Fatalf("rank %d blamed rank %d, want 2", r, dead.Rank)
		}
	}
	if ms[2].Verdict() != nil {
		t.Fatalf("the killed monitor declared a verdict of its own: %v", ms[2].Verdict())
	}
	ms[2].Kill() // idempotent
	for _, m := range ms {
		m.Close()
	}
	waitGoroutines(t, before)
}

// TestMonitorFastCloseAfterVerdictDoesNotMisleadPeers pins the elastic
// quiesce race: rank 1 detects rank 2's death (its link EOFs), reaches
// a verdict, and immediately Closes its monitor to rebuild it at the
// rejoin barrier — while rank 0 knows nothing yet (its own link to
// rank 2 is merely silent). Rank 0 must end up blaming rank 2, never
// rank 1: the abort broadcast must win the race against rank 1's
// teardown (Close waits for in-flight broadcast writes), because a
// wrong verdict here makes the coordinator reject the replacement and
// poisons the whole repair.
func TestMonitorFastCloseAfterVerdictDoesNotMisleadPeers(t *testing.T) {
	conns := controlMesh(t, 3)
	// Monitors for ranks 0 and 1 only; rank 2 is a silent husk whose
	// connection ends the test holds.
	m0, err := NewMonitor(0, 3, conns[0], Config{Interval: 25 * time.Millisecond, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewMonitor(1, 3, conns[1], Config{Interval: 25 * time.Millisecond, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	m0.Start()
	m1.Start()
	defer m0.Close()

	// Rank 2 "dies" from rank 1's perspective only: rank 1 EOFs and
	// declares, while rank 0's link to rank 2 stays silently open (its
	// own deadline is 2s away). Rank 1 then tears down immediately —
	// the elastic rejoin path.
	conns[2][1].Close()
	if dead := waitVerdict(t, m1, 2*time.Second); dead.Rank != 2 {
		t.Fatalf("rank 1 blamed rank %d, want 2", dead.Rank)
	}
	m1.Close()

	if dead := waitVerdict(t, m0, 2*time.Second); dead.Rank != 2 {
		t.Fatalf("rank 0 blamed rank %d, want 2 — rank 1's teardown outran its abort broadcast", dead.Rank)
	}
}

// TestMonitorSilenceDeadline: a peer whose process is wedged (sockets
// open, no heartbeats) is declared dead by the deadline detector within
// 2x the configured timeout, and not immediately.
func TestMonitorSilenceDeadline(t *testing.T) {
	const timeout = 400 * time.Millisecond
	conns := controlMesh(t, 3)
	cfg := Config{Interval: 50 * time.Millisecond, Timeout: timeout}
	// Ranks 0 and 1 run monitors; rank 2 holds its conns open but never
	// speaks — the half-open scenario no EOF will ever announce.
	ms := make([]*Monitor, 2)
	for r := 0; r < 2; r++ {
		m, err := NewMonitor(r, 3, conns[r], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms[r] = m
	}
	start := time.Now()
	for _, m := range ms {
		m.Start()
	}
	for r, m := range ms {
		dead := waitVerdict(t, m, 2*timeout)
		if dead.Rank != 2 {
			t.Fatalf("rank %d blamed rank %d, want the mute rank 2", r, dead.Rank)
		}
	}
	if elapsed := time.Since(start); elapsed < timeout/2 {
		t.Fatalf("verdict after %v — faster than any plausible deadline path", elapsed)
	}
	for _, m := range ms {
		m.Close()
	}
	for p := range conns[2] {
		if conns[2][p] != nil {
			conns[2][p].Close()
		}
	}
}

// TestMonitorAbortBroadcast: only rank 0 observes rank 2's death (the
// 1<->2 link stays perfectly healthy), yet rank 1 unblocks with the
// same verdict via the coordinated-abort broadcast — long before its
// own detector could know.
func TestMonitorAbortBroadcast(t *testing.T) {
	conns := controlMesh(t, 3)
	// Timeout far beyond the assertion window: if rank 1 learns of the
	// death quickly, it can only be the broadcast. Rank 2 runs no
	// monitor (it is the dying process), so rank 0 is the only rank in
	// a position to observe the death directly.
	cfg := Config{Interval: 25 * time.Millisecond, Timeout: 10 * time.Second}
	ms := make([]*Monitor, 2)
	for r := 0; r < 2; r++ {
		m, err := NewMonitor(r, 3, conns[r], cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms[r] = m
		m.Start()
	}
	// Rank 2 dies as seen from rank 0 only; its link to rank 1 stays
	// open (and silent, far below the 10 s deadline).
	conns[2][0].Close()

	dead := waitVerdict(t, ms[1], 2*time.Second)
	if dead.Rank != 2 {
		t.Fatalf("rank 1 blamed rank %d, want 2", dead.Rank)
	}
	for _, m := range ms {
		m.Close()
	}
	conns[2][1].Close()
}

// TestMonitorCleanShutdownIsNotDeath: a rank that Closes its monitor
// says bye; peers mark it departed and never declare a verdict, even
// after the silence deadline has long passed.
func TestMonitorCleanShutdownIsNotDeath(t *testing.T) {
	conns := controlMesh(t, 2)
	const timeout = 200 * time.Millisecond
	ms := startMonitors(t, conns, Config{Interval: 25 * time.Millisecond, Timeout: timeout})
	ms[1].Close()
	select {
	case <-ms[0].Dead():
		t.Fatalf("clean departure misread as death: %v", ms[0].Verdict())
	case <-time.After(2 * timeout):
	}
	if err := ms[0].Verdict(); err != nil {
		t.Fatalf("verdict %v after a clean bye", err)
	}
	ms[0].Close()
}

// TestMonitorStepReportPiggyback: step timings reported on one rank
// arrive at every peer on the next heartbeat.
func TestMonitorStepReportPiggyback(t *testing.T) {
	conns := controlMesh(t, 2)
	ms := startMonitors(t, conns, Config{Interval: 15 * time.Millisecond, Timeout: 5 * time.Second})
	defer ms[0].Close()
	defer ms[1].Close()

	slow := StepReport{Step: 3, Compute: 50 * time.Millisecond, Exchange: 20 * time.Millisecond}
	fast := StepReport{Step: 3, Compute: 5 * time.Millisecond, Exchange: 2 * time.Millisecond}
	ms[0].ReportStep(slow)
	ms[1].ReportStep(fast)

	deadline := time.Now().Add(2 * time.Second)
	for {
		got, ok := ms[1].Report(0)
		if ok && got == slow {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rank 1 never saw rank 0's report (got %+v, known %v)", got, ok)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ms[0].ControlBytes() == 0 {
		t.Fatal("control-plane bytes unaccounted")
	}
}

// TestMonitorValidation: malformed constructions are rejected.
func TestMonitorValidation(t *testing.T) {
	if _, err := NewMonitor(0, 1, []net.Conn{nil}, Config{}); err == nil {
		t.Fatal("world of 1 must be rejected")
	}
	if _, err := NewMonitor(0, 2, []net.Conn{nil, nil}, Config{}); err == nil {
		t.Fatal("missing control link must be rejected")
	}
	if _, err := NewMonitor(2, 2, nil, Config{}); err == nil {
		t.Fatal("out-of-range rank must be rejected")
	}
	if _, err := NewMonitor(0, 2, []net.Conn{nil, nil}, Config{Disable: true}); err == nil {
		t.Fatal("disabled config must be rejected")
	}
}

// waitGoroutines asserts the goroutine count returns to (near) the
// baseline — the loops and writers all exited.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
