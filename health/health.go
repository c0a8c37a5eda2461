// Package health is the cluster's control plane: a heartbeat protocol,
// a failure detector and a coordinated-abort broadcast that run beside
// the gradient mesh for the lifetime of a training session.
//
// The paper's synchronous algorithm assumes every rank reaches every
// all-reduce; in a multi-process deployment a rank dying mid-epoch
// would otherwise leave the survivors blocked inside the exchange
// forever. The health plane turns that hang into a prompt, typed
// verdict: every rank sends a small ping to every peer over a
// dedicated control link each Interval; a phi-or-deadline detector
// (see Detector) declares a silent peer dead; the first rank to reach
// a verdict broadcasts an abort so every survivor unblocks with the
// same error, ErrPeerDead — the cluster wires that verdict into
// comm.RemoteFabric.Abort, which interrupts in-flight Send/Recv.
//
// Pings also carry the sender's latest step timings, so the same plane
// doubles as straggler telemetry: the synchronous step is gated by its
// slowest participant (the S-SGD DAG model), and Monitor.Report lets
// every rank attribute the barrier wait without moving a single byte
// over the data mesh — the control links have their own sockets and
// their own byte counter (ControlBytes), keeping the data fabric's
// accounting, and therefore the performance model's TCP byte parity,
// untouched.
//
// The package is deliberately free of repro dependencies: it speaks
// net.Conn only, so it can monitor any mesh the rendezvous (or a test)
// hands it.
package health

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultInterval is the heartbeat period when Config.Interval is zero.
const DefaultInterval = 500 * time.Millisecond

// DefaultPhi is the phi-accrual suspicion threshold when Config.Phi is
// zero — the value Akka and Cassandra default to.
const DefaultPhi = 8.0

// defaultTimeoutIntervals is the hard deadline, in heartbeat intervals,
// when Config.Timeout is zero.
const defaultTimeoutIntervals = 8

// Config tunes the health plane.
type Config struct {
	// Interval is the heartbeat period (default DefaultInterval). In a
	// cluster the coordinator's value governs the whole session — it is
	// broadcast in the rendezvous welcome so every rank agrees.
	Interval time.Duration
	// Timeout is the hard silence deadline after which a peer is
	// declared dead regardless of the phi statistics (default
	// 8×Interval). The cluster's abort guarantee — every survivor
	// unblocks within 2×Timeout of a death — is stated against it.
	Timeout time.Duration
	// Phi is the accrual-detector suspicion threshold (default
	// DefaultPhi). Higher tolerates more jitter before declaring death;
	// the hard Timeout applies regardless.
	Phi float64
	// Disable turns the health plane off: no control links, no
	// heartbeats, no failure detection — the pre-health behaviour where
	// a dead peer blocks the survivors until transport errors surface.
	Disable bool
}

// Resolved returns the config with defaults filled in. Interval and
// Timeout are rounded to whole milliseconds — the granularity the
// rendezvous welcome transports them at — so the coordinator's own
// monitor and every worker's provably run identical settings; a
// sub-millisecond interval rounds up to 1ms rather than truncating to
// "disabled" on the wire.
func (c Config) Resolved() Config {
	if c.Disable {
		return Config{Disable: true}
	}
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.Interval = c.Interval.Round(time.Millisecond); c.Interval < time.Millisecond {
		c.Interval = time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = defaultTimeoutIntervals * c.Interval
	}
	if c.Timeout = c.Timeout.Round(time.Millisecond); c.Timeout < c.Interval {
		c.Timeout = c.Interval
	}
	if c.Phi <= 0 {
		c.Phi = DefaultPhi
	}
	return c
}

// ErrPeerDead is the verdict every surviving rank observes when the
// health plane declares a peer dead: the same typed error, whether the
// local detector reached the verdict or an abort broadcast delivered
// it. It is what interrupted Send/Recv calls on the data mesh return
// after the abort, and what Trainer.Run surfaces.
type ErrPeerDead struct {
	// Rank is the dead peer.
	Rank int
	// LastSeen is when the declaring rank last heard from it.
	LastSeen time.Time
}

// Error implements error.
func (e ErrPeerDead) Error() string {
	if e.LastSeen.IsZero() {
		return fmt.Sprintf("health: rank %d declared dead", e.Rank)
	}
	return fmt.Sprintf("health: rank %d declared dead (last heartbeat %s ago)",
		e.Rank, time.Since(e.LastSeen).Round(time.Millisecond))
}

// StepReport is one rank's timing of its latest completed training
// step. Reports ride on heartbeat pings, so every rank holds a
// slightly stale copy of every peer's timings — the data behind
// straggler attribution.
type StepReport struct {
	// Step is the 1-based index of the completed step (0 = none yet).
	Step int64
	// Compute is the forward+backward wall time of that step.
	Compute time.Duration
	// Exchange is the gradient-exchange wall time of that step.
	Exchange time.Duration
}

// link is the control connection to one peer.
type link struct {
	conn net.Conn
	// wmu serialises ping, abort and bye writes on the conn.
	wmu sync.Mutex
	det *Detector
}

// Monitor runs the health plane for one rank: heartbeat senders and
// readers per peer, the failure detector, the coordinated abort, and
// the straggler-report exchange. Build it with NewMonitor over the
// control links the rendezvous established, register verdict handlers
// with OnVerdict, then Start it. The monitor owns the connections and
// closes them on Close.
type Monitor struct {
	local, world int
	cfg          Config
	links        []*link

	mu       sync.Mutex
	handlers []func(error)
	verdict  error
	reports  []StepReport
	known    []bool
	departed []bool
	started  bool
	closing  bool
	// teleBuf holds the encoded pending telemetry message (header and
	// all); teleSeq identifies it so each sendLoop ships a given
	// snapshot to its peer exactly once. teleSnaps/teleKnown mirror
	// reports/known for the richer telemetry payloads.
	teleBuf   []byte
	teleSeq   uint64
	teleSnaps []TelemetrySnapshot
	teleKnown []bool

	dead  chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
	seq   atomic.Uint64
	bytes atomic.Int64
	// beat is the optional heartbeat observer (see OnHeartbeat) — an
	// atomic.Pointer so the per-ping path never takes mu for it.
	beat atomic.Pointer[func(peer int, gap time.Duration)]
	// tele is the optional telemetry observer (see OnTelemetry), same
	// discipline as beat.
	tele atomic.Pointer[func(peer int, s TelemetrySnapshot)]
	// bcast tracks in-flight abort-broadcast writes so Close can wait
	// for them (bounded by the write deadline) before cutting the
	// links: an elastic survivor closes its monitor moments after the
	// verdict, and a broadcast raced away by the teardown would leave
	// a slower peer to misread this rank's EOF as a second death.
	bcast sync.WaitGroup
}

// NewMonitor wraps the per-peer control connections of one rank into a
// monitor. conns must have length world with a non-nil connection for
// every peer and nil at index local; cfg is resolved with defaults.
// The monitor takes ownership of the connections.
func NewMonitor(local, world int, conns []net.Conn, cfg Config) (*Monitor, error) {
	if world <= 1 {
		return nil, fmt.Errorf("health: a monitor needs at least one peer, world is %d", world)
	}
	if local < 0 || local >= world {
		return nil, fmt.Errorf("health: local rank %d outside world of %d", local, world)
	}
	if len(conns) != world {
		return nil, fmt.Errorf("health: monitor wants %d connections, got %d", world, len(conns))
	}
	cfg = cfg.Resolved()
	if cfg.Disable {
		return nil, fmt.Errorf("health: monitor built with a disabled config")
	}
	m := &Monitor{
		local:     local,
		world:     world,
		cfg:       cfg,
		links:     make([]*link, world),
		reports:   make([]StepReport, world),
		known:     make([]bool, world),
		departed:  make([]bool, world),
		teleSnaps: make([]TelemetrySnapshot, world),
		teleKnown: make([]bool, world),
		dead:      make(chan struct{}),
		stop:      make(chan struct{}),
	}
	for p, c := range conns {
		if p == local {
			if c != nil {
				return nil, fmt.Errorf("health: rank %d must not monitor itself", local)
			}
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("health: rank %d is missing the control link to rank %d", local, p)
		}
		m.links[p] = &link{conn: c}
	}
	return m, nil
}

// Config returns the resolved configuration the monitor runs under.
func (m *Monitor) Config() Config { return m.cfg }

// OnVerdict registers a handler invoked exactly once with the death
// verdict (an ErrPeerDead). Handlers registered after the verdict are
// invoked immediately. The cluster registers comm.RemoteFabric.Abort
// here; applications can register their own via lpsgd.WithHealthHandler.
func (m *Monitor) OnVerdict(fn func(error)) {
	if fn == nil {
		return
	}
	m.mu.Lock()
	if v := m.verdict; v != nil {
		m.mu.Unlock()
		fn(v)
		return
	}
	m.handlers = append(m.handlers, fn)
	m.mu.Unlock()
}

// Dead returns a channel closed once a death verdict is reached (by
// the local detector or an abort broadcast). By the time it is closed,
// every registered verdict handler has run.
func (m *Monitor) Dead() <-chan struct{} { return m.dead }

// Verdict returns the death verdict, or nil while every peer is alive.
func (m *Monitor) Verdict() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.verdict
}

// ControlBytes returns the bytes this rank has written to the control
// plane. It is accounted separately from the data mesh on purpose: the
// fabric's TotalBytes — and the performance model's byte parity with it
// — must not move when the health plane is on.
func (m *Monitor) ControlBytes() int64 { return m.bytes.Load() }

// OnHeartbeat registers an observer invoked on every heartbeat received
// from a peer with the gap since that peer's previous heartbeat (its
// RTT-plus-jitter signal). At most one observer is active; nil detaches
// it. The package stays free of repro dependencies — observability
// wiring happens in the caller (repro/parallel feeds an obs histogram).
func (m *Monitor) OnHeartbeat(fn func(peer int, gap time.Duration)) {
	if fn == nil {
		m.beat.Store(nil)
		return
	}
	m.beat.Store(&fn)
}

// Phi returns the failure detector's current suspicion level for a
// peer: 0 before Start (or for the local rank and departed peers),
// rising as the peer's heartbeats grow overdue (see Detector.Phi).
func (m *Monitor) Phi(rank int) float64 {
	if rank < 0 || rank >= m.world || rank == m.local {
		return 0
	}
	m.mu.Lock()
	started := m.started
	gone := m.departed[rank]
	m.mu.Unlock()
	if !started || gone {
		return 0
	}
	l := m.links[rank]
	if l == nil || l.det == nil {
		return 0
	}
	return l.det.Phi(time.Now())
}

// ReportStep records the local rank's latest step timing; the next
// heartbeat to every peer carries it.
func (m *Monitor) ReportStep(r StepReport) {
	m.mu.Lock()
	m.reports[m.local] = r
	m.known[m.local] = true
	m.mu.Unlock()
}

// Report returns the latest step timing known for a rank — the local
// rank's own report, or the copy the peer's most recent heartbeat
// carried — and whether one exists yet.
func (m *Monitor) Report(rank int) (StepReport, bool) {
	if rank < 0 || rank >= m.world {
		return StepReport{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reports[rank], m.known[rank]
}

// ReportTelemetry records the local rank's latest convergence snapshot.
// Each peer's next heartbeat cycle ships it once, right behind the
// ping, over the same control socket (bytes under ControlBytes); the
// local OnTelemetry observer — if any — sees it immediately, so a hub
// aggregates local and remote ranks through one attach point. A
// snapshot that violates the wire bounds is rejected, not truncated.
func (m *Monitor) ReportTelemetry(s TelemetrySnapshot) error {
	m.mu.Lock()
	buf, err := encodeTelemetry(m.teleBuf, m.local, s)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.teleBuf = buf
	m.teleSeq++
	m.teleSnaps[m.local] = s
	m.teleKnown[m.local] = true
	m.mu.Unlock()
	if fn := m.tele.Load(); fn != nil {
		(*fn)(m.local, s)
	}
	return nil
}

// OnTelemetry registers an observer invoked for every telemetry
// snapshot: the local rank's own (synchronously from ReportTelemetry)
// and every peer's (from that peer's read loop). At most one observer
// is active; nil detaches it. Like OnHeartbeat, the package stays free
// of repro dependencies — the cluster telemetry hub attaches here.
func (m *Monitor) OnTelemetry(fn func(peer int, s TelemetrySnapshot)) {
	if fn == nil {
		m.tele.Store(nil)
		return
	}
	m.tele.Store(&fn)
}

// Telemetry returns the latest convergence snapshot known for a rank —
// the local rank's own, or the copy its most recent telemetry message
// carried — and whether one exists yet.
func (m *Monitor) Telemetry(rank int) (TelemetrySnapshot, bool) {
	if rank < 0 || rank >= m.world {
		return TelemetrySnapshot{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.teleSnaps[rank], m.teleKnown[rank]
}

// Start launches the heartbeat senders, the per-peer readers and the
// detector sweep. It may be called once.
func (m *Monitor) Start() {
	m.mu.Lock()
	if m.started || m.closing {
		m.mu.Unlock()
		return
	}
	// Detectors are created before started is published (still under
	// mu), so Phi — which checks started first — never observes a nil
	// detector on a started monitor.
	now := time.Now()
	for _, l := range m.links {
		if l != nil {
			l.det = NewDetector(m.cfg.Timeout, m.cfg.Phi, now)
		}
	}
	m.started = true
	m.mu.Unlock()
	for p, l := range m.links {
		if l == nil {
			continue
		}
		m.wg.Add(2)
		go m.sendLoop(p, l)
		go m.readLoop(p, l)
	}
	m.wg.Add(1)
	go m.checkLoop()
}

// sendLoop pings one peer every Interval, piggybacking the latest local
// step report — and, when ReportTelemetry has published a snapshot this
// peer has not seen, ships that snapshot right behind the ping.
func (m *Monitor) sendLoop(peer int, l *link) {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.Interval)
	defer ticker.Stop()
	var buf, teleScratch []byte
	var teleSent uint64
	for {
		select {
		case <-m.stop:
			return
		case <-m.dead:
			return
		case <-ticker.C:
		}
		m.mu.Lock()
		r := m.reports[m.local]
		var tele []byte
		teleSeq := m.teleSeq
		if teleSeq != teleSent && len(m.teleBuf) > 0 {
			tele = append(teleScratch[:0], m.teleBuf...)
			teleScratch = tele
		}
		m.mu.Unlock()
		buf = encodePing(buf, m.local, m.seq.Add(1), r)
		// A write failure here is not a verdict by itself — the reader's
		// EOF or the detector's silence deadline decides — but there is
		// no point pinging a broken link any faster than the ticker.
		m.write(l, buf) //lint:allow commerr a failed ping is not a verdict; the read loop and silence deadline decide
		if tele != nil && m.write(l, tele) {
			teleSent = teleSeq
		}
	}
}

// write sends one control message on a link, bounded by the hard
// timeout so a wedged control conn cannot hang its sender goroutine.
func (m *Monitor) write(l *link, buf []byte) bool {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	l.conn.SetWriteDeadline(time.Now().Add(m.cfg.Timeout))
	n, err := l.conn.Write(buf)
	m.bytes.Add(int64(n))
	return err == nil
}

// readLoop consumes one peer's control stream: pings feed the detector
// and the report table, an abort adopts the broadcast verdict, a bye
// marks the peer cleanly departed, and an unexpected stream error is
// itself an immediate death verdict (a SIGKILLed process closes its
// sockets long before any silence deadline fires).
func (m *Monitor) readLoop(peer int, l *link) {
	defer m.wg.Done()
	for {
		msg, err := readMessage(l.conn)
		if err != nil {
			m.mu.Lock()
			closing := m.closing
			gone := m.departed[peer]
			m.mu.Unlock()
			if closing || gone {
				return
			}
			m.declareDead(peer, l.det.LastSeen())
			return
		}
		switch msg.Kind {
		case kindPing:
			now := time.Now()
			if fn := m.beat.Load(); fn != nil {
				(*fn)(peer, now.Sub(l.det.LastSeen()))
			}
			l.det.Observe(now)
			if msg.HasSteps {
				m.mu.Lock()
				m.reports[peer] = msg.Report
				m.known[peer] = true
				m.mu.Unlock()
			}
		case kindAbort:
			m.adoptVerdict(msg.Dead, time.Unix(0, msg.LastSeenNano))
			return
		case kindTelemetry:
			// HasTelemetry is false for a skipped snapshot version — a
			// newer peer's richer telemetry is ignored, never fatal.
			if msg.HasTelemetry {
				m.mu.Lock()
				m.teleSnaps[peer] = msg.Telemetry
				m.teleKnown[peer] = true
				m.mu.Unlock()
				if fn := m.tele.Load(); fn != nil {
					(*fn)(peer, msg.Telemetry)
				}
			}
		case kindBye:
			m.mu.Lock()
			m.departed[peer] = true
			m.mu.Unlock()
		}
	}
}

// checkLoop sweeps the detectors. The sweep period divides the hard
// deadline so a silent peer is declared within Timeout plus one sweep.
func (m *Monitor) checkLoop() {
	defer m.wg.Done()
	period := m.cfg.Interval
	if p := m.cfg.Timeout / 4; p < period {
		period = p
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.dead:
			return
		case <-ticker.C:
		}
		now := time.Now()
		for p, l := range m.links {
			if l == nil {
				continue
			}
			m.mu.Lock()
			gone := m.departed[p]
			m.mu.Unlock()
			if gone {
				continue
			}
			if l.det.Suspect(now) {
				m.declareDead(p, l.det.LastSeen())
				return
			}
		}
	}
}

// declareDead reaches a local death verdict: record it, broadcast the
// abort to every other survivor, run the handlers, and release every
// Dead() waiter. Only the first verdict wins.
func (m *Monitor) declareDead(rank int, lastSeen time.Time) {
	m.settle(rank, lastSeen, true)
}

// adoptVerdict installs a verdict delivered by a peer's abort
// broadcast. No re-broadcast: the declaring rank already told everyone,
// and each survivor's own detector still covers the case where the
// declarer died mid-broadcast.
func (m *Monitor) adoptVerdict(rank int, lastSeen time.Time) {
	m.settle(rank, lastSeen, false)
}

func (m *Monitor) settle(rank int, lastSeen time.Time, broadcast bool) {
	m.mu.Lock()
	if m.verdict != nil || m.closing {
		m.mu.Unlock()
		return
	}
	verdict := ErrPeerDead{Rank: rank, LastSeen: lastSeen}
	m.verdict = verdict
	handlers := m.handlers
	m.handlers = nil
	var targets []*link
	if broadcast {
		for p, l := range m.links {
			if l == nil || p == rank || m.departed[p] {
				continue
			}
			targets = append(targets, l)
		}
		// The Add happens under the same lock that guards closing, so a
		// concurrent Close either sees closing set here first (and this
		// settle returns early above) or reaches its bcast.Wait only
		// after the counter covers every pending write — never an Add
		// racing a Wait.
		m.bcast.Add(len(targets))
	}
	m.mu.Unlock()

	if broadcast {
		// Concurrent: a wedged control link must not delay the local
		// abort (or the broadcast to healthy peers) by its write
		// deadline. The writes are tracked, not fire-and-forget — Close
		// waits for them before cutting the links, so a survivor that
		// tears its plane down immediately after the verdict (the
		// elastic rejoin path) cannot cut off the broadcast that tells
		// slower peers who actually died.
		buf := encodeAbort(nil, m.local, rank, lastSeen.UnixNano())
		for _, l := range targets {
			go func(l *link) {
				defer m.bcast.Done()
				m.write(l, buf) //lint:allow commerr abort broadcast is best-effort per link; peers also have their own deadlines
			}(l)
		}
	}
	// Handlers run before Dead() closes, so a waiter woken by the
	// channel already sees the fabric aborted.
	for _, fn := range handlers {
		fn(verdict)
	}
	close(m.dead)
}

// Kill severs the control links abruptly — no parting bye — so every
// peer's monitor observes exactly what a SIGKILLed process would
// produce: sockets dropping mid-stream, followed by a death verdict.
// It exists for in-process fault-injection (the elastic-rejoin tests
// simulate a rank death without forking an OS process); production
// shutdown paths should use Close, whose bye distinguishes departure
// from death.
func (m *Monitor) Kill() {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return
	}
	m.closing = true
	m.mu.Unlock()
	close(m.stop)
	for _, l := range m.links {
		if l != nil {
			l.conn.Close()
		}
	}
	m.wg.Wait()
}

// Close shuts the health plane down cleanly: a bye is sent to every
// peer (so their monitors mark this rank departed instead of dead),
// the control links are closed, and the loops are joined. Close is
// idempotent and never declares a verdict of its own.
//
// The bye goes out even when this monitor already holds a death
// verdict: in an elastic session the survivors tear their planes down
// to rebuild them at the rejoin barrier, and a survivor's sockets
// vanishing without a bye would read as a second death on any peer
// that has not reached its own verdict yet — making it blame a live
// rank and poisoning the repair. With byes unconditional, the only
// EOF-without-bye a monitor can observe belongs to a process that
// actually died (which is also why Kill, the crash injector, is the
// one path that skips them). Writes to already-dead links fail fast
// and are ignored; wedged ones are bounded by the write deadline.
func (m *Monitor) Close() error {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return nil
	}
	m.closing = true
	started := m.started
	m.mu.Unlock()
	close(m.stop)
	// An abort broadcast may still be in flight; it must reach the
	// survivors before this rank's sockets vanish (bounded by the
	// write deadline).
	m.bcast.Wait()
	if started {
		// Byes go out concurrently, like the abort broadcast: one wedged
		// control link must bound Close by a single write deadline, not
		// world-1 of them.
		bye := encodeBye(nil, m.local)
		var byes sync.WaitGroup
		for _, l := range m.links {
			if l == nil {
				continue
			}
			byes.Add(1)
			go func(l *link) {
				defer byes.Done()
				m.write(l, bye) //lint:allow commerr parting bye is best-effort; a lost one degrades to death detection, not corruption
			}(l)
		}
		byes.Wait()
	}
	for _, l := range m.links {
		if l != nil {
			l.conn.Close()
		}
	}
	m.wg.Wait()
	return nil
}
