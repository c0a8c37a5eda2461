// Package cluster is the multi-process runtime of the reproduction: it
// turns N independent OS processes — one per worker, possibly on
// different machines — into the K-peer mesh the aggregation primitives
// in repro/comm run over. PR 1's self-describing framed wire format
// means TCP peers can decode gradients with no shared configuration;
// this package supplies the remaining pieces, rendezvous and
// capability exchange:
//
//   - Rank 0 (the coordinator) listens on a well-known address; every
//     other rank dials in and sends a versioned hello carrying its
//     rank, the world size it expects, the address of its own mesh
//     listener, and the precision policy strings it accepts
//     (quant.ParsePolicy grammar — bare codec names included).
//   - The coordinator validates the hellos (protocol version, rank
//     uniqueness, world agreement, parseable policy strings),
//     negotiates the session policy — the cheapest policy every peer
//     accepts by canonical spelling, with "32bit" as the floor (see
//     Negotiate) — and broadcasts the membership table.
//   - Every pair of ranks then establishes its duplex TCP link (the
//     higher rank dials the lower rank's mesh listener), and each
//     process wraps its local connection ends into a comm.RemoteFabric
//     — the same single-rank Transport that comm.TCPFabric builds K of
//     on loopback, so the trainer code cannot tell a simulated mesh
//     from a deployed one.
//
// The result is a Session: rank, world size, negotiated policy and a
// ready Transport. repro/lpsgd exposes it as
// lpsgd.WithCluster(addr, rank, world), and cmd/lpsgd-worker is the
// process you actually launch.
package cluster

import (
	"fmt"
	"net"
	"time"

	"repro/comm"
	"repro/elastic"
	"repro/health"
	"repro/obs"
	"repro/quant"
)

// Config describes one rank's view of a rendezvous.
type Config struct {
	// Addr is the coordinator's rendezvous address. Rank 0 listens on
	// it; every other rank dials it.
	Addr string
	// Rank is this process's rank in [0, World).
	Rank int
	// World is the total number of worker processes.
	World int
	// Accept lists the precision policy strings (quant.ParsePolicy
	// grammar; bare codec names are valid policies) this rank is
	// willing to train under. The Floor policy "32bit" is always
	// implicitly accepted. Empty means floor-only.
	Accept []string
	// Timeout bounds every handshake step (default 30s). It does not
	// apply to the training traffic that follows.
	Timeout time.Duration
	// Health tunes the session's health plane (heartbeat interval,
	// failure-detection timeout, phi threshold — see repro/health). The
	// coordinator's values govern the whole session: they are broadcast
	// in the welcome so every rank runs identical detection settings,
	// and they decide whether the per-peer control links are
	// established at all (Health.Disable). A worker's own Interval,
	// Timeout and Disable are therefore ignored; its Phi applies to its
	// local detectors.
	Health health.Config
	// Elastic tunes elastic sessions (see repro/elastic): whether a
	// peer-death verdict opens a rejoin barrier instead of staying
	// fatal, and how long that barrier holds for a replacement. Like
	// the health plane, the coordinator's values govern the whole
	// session — the welcome broadcasts the rejoin window, and a zero
	// window means elasticity is off. Requires the health plane: the
	// failure detector's verdict is the rejoin trigger.
	Elastic elastic.Config
	// Tracer, when set, records the session's control-plane events —
	// rendezvous and rejoin rounds — as obs.PhaseControl spans. Nil
	// (the default) is fully inert.
	Tracer *obs.Tracer
}

const defaultTimeout = 30 * time.Second

// handshakeGrace is the per-connection budget for the first message of
// an untrusted connection (a hello on the rendezvous port, a preamble
// on a mesh port). Real peers write it immediately after dialling; a
// silent stray — a port scanner, a health probe — must not hold the
// serialized accept loop for the whole rendezvous deadline and starve
// the real ranks waiting in the listen backlog. A variable so tests
// can shrink it.
var handshakeGrace = 5 * time.Second

// graceDeadline returns the nearer of the overall deadline and one
// handshake grace from now.
func graceDeadline(deadline time.Time) time.Time {
	if g := time.Now().Add(handshakeGrace); g.Before(deadline) {
		return g
	}
	return deadline
}

func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return defaultTimeout
}

func (c Config) validate() error {
	if c.World <= 0 {
		return fmt.Errorf("cluster: world size must be positive, got %d", c.World)
	}
	if c.Rank < 0 || c.Rank >= c.World {
		return fmt.Errorf("cluster: rank %d outside world of %d", c.Rank, c.World)
	}
	if c.Addr == "" {
		return fmt.Errorf("cluster: rendezvous address is required")
	}
	for _, name := range c.Accept {
		if _, err := quant.ParsePolicy(name); err != nil {
			return fmt.Errorf("cluster: accepted policy: %w", err)
		}
	}
	if c.Rank == 0 && c.Elastic.Enable && c.Health.Resolved().Disable {
		return fmt.Errorf("cluster: elastic sessions need the health plane (the failure detector's verdict triggers the rejoin); enable heartbeats or disable elasticity")
	}
	return nil
}

// Session is one rank's membership in a running cluster: its identity,
// the precision policy the rendezvous negotiated, and the established
// mesh. When the coordinator enabled elastic sessions, the session is
// also the rank's elastic.Rejoiner: after a peer-death verdict, Rejoin
// re-runs the rendezvous (ProtocolVersion 4 rejoin hellos) against the
// same coordinator address, rebuilds the mesh and health plane in
// place, and brokers the state transfer that lets a replacement take
// the dead rank's slot.
type Session struct {
	rank, world int
	policyName  string
	policy      *quant.Policy
	fabric      *comm.RemoteFabric
	monitor     *health.Monitor
	peers       []string

	// Rejoin context: the resolved rendezvous address every rank can
	// re-dial (rank 0 re-listens on it), the session's resolved health
	// and elastic settings, the advertised accept set, and the
	// completed rejoin-round count. fabric/monitor/peers/generation are
	// replaced by Rejoin, which runs on the rank's training goroutine;
	// the accessors are not synchronised against it.
	rendAddr   string
	hb         health.Config
	el         elastic.Config
	accepts    []string
	generation int
	tracer     *obs.Tracer
}

// Rank returns this process's rank.
func (s *Session) Rank() int { return s.rank }

// World returns the number of worker processes.
func (s *Session) World() int { return s.world }

// PolicyName returns the negotiated policy's canonical spelling.
func (s *Session) PolicyName() string { return s.policyName }

// Policy returns the negotiated precision policy.
func (s *Session) Policy() *quant.Policy { return s.policy }

// Fabric returns the established mesh transport. The session owns it;
// Close tears it down.
func (s *Session) Fabric() *comm.RemoteFabric { return s.fabric }

// Monitor returns the session's health monitor, or nil when the
// coordinator disabled the health plane. The rendezvous has already
// wired the monitor's verdict into Fabric().Abort, so a peer death
// unblocks every in-flight exchange with health.ErrPeerDead;
// additional handlers can be registered with Monitor().OnVerdict.
func (s *Session) Monitor() *health.Monitor { return s.monitor }

// Peers returns the mesh addresses of all ranks (index = rank).
func (s *Session) Peers() []string { return append([]string(nil), s.peers...) }

// Elastic returns the session's resolved elastic configuration — the
// coordinator-governed settings the welcome broadcast. Enable is false
// when the coordinator left elasticity off.
func (s *Session) Elastic() elastic.Config { return s.el }

// Generation counts the rejoin rounds this session has completed: 0
// until a death verdict is repaired, then one more per repair.
func (s *Session) Generation() int { return s.generation }

// Close tears the session down: the health plane first — its parting
// bye tells every peer this is a departure, not a death — then the
// mesh. Peers blocked in Recv observe the link loss as an error on
// their side.
func (s *Session) Close() error {
	if s.monitor != nil {
		s.monitor.Close()
	}
	return s.fabric.Close()
}

// Join performs the rendezvous for one rank and blocks until the whole
// mesh is established. Rank 0 listens on cfg.Addr and coordinates;
// every other rank dials it. For rank 0 with a ":0" address, use
// NewCoordinator first to learn the bound address before spawning the
// other ranks.
func Join(cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank == 0 {
		coord, err := NewCoordinator(cfg)
		if err != nil {
			return nil, err
		}
		return coord.Join()
	}
	return joinWorker(cfg)
}

// Coordinator owns the rendezvous listener of rank 0 between "start
// listening" and "everyone joined" — the window a launcher needs to
// learn the bound address (Addr) and spawn the other ranks.
type Coordinator struct {
	cfg Config
	ln  net.Listener
}

// NewCoordinator validates the configuration (which must be rank 0) and
// starts listening on cfg.Addr immediately, so workers spawned after it
// returns can never hit connection-refused.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank != 0 {
		return nil, fmt.Errorf("cluster: the coordinator is rank 0, got rank %d", cfg.Rank)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: rendezvous listen: %w", err)
	}
	return &Coordinator{cfg: cfg, ln: ln}, nil
}

// Addr returns the bound rendezvous address — pass it to the other
// ranks when cfg.Addr used port 0.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Close abandons a rendezvous before Join.
func (c *Coordinator) Close() error { return c.ln.Close() }

// Join runs the coordinator's side of the rendezvous: collect one
// hello per rank, negotiate the codec, broadcast the membership table,
// establish the mesh, and return rank 0's session. The rendezvous
// listener is closed when Join returns, successfully or not; training
// traffic flows over the mesh links only.
func (c *Coordinator) Join() (*Session, error) {
	defer c.ln.Close()
	cfg := c.cfg
	rendStart := cfg.Tracer.Now()
	deadline := time.Now().Add(cfg.timeout())

	accepts := make([][]string, cfg.World)
	addrs := make([]string, cfg.World)
	accepts[0] = cfg.Accept

	// Phase 1: collect one hello per rank. A malformed or conflicting
	// hello aborts the whole rendezvous — a cluster that cannot agree on
	// its own membership must not train — but the offender is told why.
	rendConns := make([]net.Conn, cfg.World)
	defer func() {
		for _, conn := range rendConns {
			if conn != nil {
				conn.Close()
			}
		}
	}()
	if tl, ok := c.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for joined := 1; joined < cfg.World; {
		conn, err := c.ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("cluster: rendezvous accept (have %d of %d ranks): %w",
				joined, cfg.World, err)
		}
		conn.SetDeadline(graceDeadline(deadline))
		h, err := readHello(conn)
		conn.SetDeadline(deadline) // the welcome write gets the full window
		if err != nil {
			// Garbage on the port — a scanner, a liveness probe, a
			// disconnect — is not a cluster member failing; drop it and
			// keep accepting until the deadline.
			writeReject(conn, 0, err.Error())
			conn.Close()
			continue
		}
		// A well-formed hello that conflicts with the cluster's own
		// configuration (wrong protocol version, wrong world, duplicate
		// or out-of-range rank, unusable codec) is a real
		// misconfiguration: a cluster that cannot agree on its own
		// membership must not train. The reject is written at the
		// offender's own version so another build can display it.
		if err := c.checkHello(h, rendConns); err != nil {
			writeReject(conn, h.Version, err.Error())
			conn.Close()
			return nil, fmt.Errorf("cluster: rejected hello: %w", err)
		}
		rendConns[h.Rank] = conn
		accepts[h.Rank] = h.Accept
		addrs[h.Rank] = h.MeshAddr
		joined++
	}

	// The coordinator's mesh listener binds the interface the workers
	// actually reached it through (the local end of any rendezvous
	// connection), so the advertised address stays routable even when
	// the rendezvous listener is bound to a wildcard like ":7070".
	meshRef := c.ln.Addr()
	for _, conn := range rendConns {
		if conn != nil {
			meshRef = conn.LocalAddr()
			break
		}
	}
	meshLn, err := listenMesh(meshRef)
	if err != nil {
		return nil, err
	}
	defer meshLn.Close()
	addrs[0] = meshLn.Addr().String()

	// Phase 2: negotiate the session policy over every rank's accepted
	// set, the coordinator's own included.
	policyName, err := Negotiate(accepts...)
	if err != nil {
		for _, conn := range rendConns {
			if conn != nil {
				writeReject(conn, 0, err.Error())
			}
		}
		return nil, err
	}

	// Phase 3: broadcast the membership table, with the session's
	// health-plane and elastic parameters — the coordinator's word is
	// what makes every rank run the same detection settings, establish
	// (or skip) the control links in agreement, and hold (or not) a
	// rejoin barrier after a death verdict.
	hb := cfg.Health.Resolved()
	el := cfg.Elastic.Resolved()
	wel := welcome{Codec: policyName, Addrs: addrs}
	if !hb.Disable {
		wel.HeartbeatInterval = hb.Interval
		wel.HeartbeatTimeout = hb.Timeout
	}
	if el.Enable {
		wel.RejoinWindow = el.RejoinWindow
	}
	for rank := 1; rank < cfg.World; rank++ {
		if err := writeWelcome(rendConns[rank], wel); err != nil {
			return nil, fmt.Errorf("cluster: welcome rank %d: %w", rank, err)
		}
	}

	// Phase 4: establish the mesh. Rank 0 is the lowest rank, so it
	// only accepts: one data link — plus one control link when the
	// health plane is on — from every other rank.
	conns := make([]net.Conn, cfg.World)
	var ctrl []net.Conn
	if !hb.Disable {
		ctrl = make([]net.Conn, cfg.World)
	}
	if err := acceptMeshLinks(meshLn, 0, cfg.World, deadline, conns, ctrl); err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, err
	}
	sess, err := newSession(cfg, policyName, addrs, conns, ctrl, hb, el, c.ln.Addr().String())
	if err == nil {
		cfg.Tracer.Record(cfg.Rank, obs.PhaseControl, "rendezvous", -1, 0, rendStart, cfg.Tracer.Now()-rendStart)
	}
	return sess, err
}

// checkHello validates one worker's hello against the coordinator's
// configuration and the ranks already joined.
func (c *Coordinator) checkHello(h hello, rendConns []net.Conn) error {
	if h.Version != ProtocolVersion {
		return fmt.Errorf("cluster: a worker speaks rendezvous protocol version %d, this build speaks %d (the session needs matching builds)",
			h.Version, ProtocolVersion)
	}
	if h.Rejoin {
		return fmt.Errorf("cluster: rank %d sent a rejoin hello, but this rendezvous is forming a fresh session (launch without -rejoin, or point the worker at a session that lost a rank)", h.Rank)
	}
	if h.World != c.cfg.World {
		return fmt.Errorf("cluster: rank %d expects a world of %d, coordinator has %d",
			h.Rank, h.World, c.cfg.World)
	}
	if h.Rank <= 0 || h.Rank >= c.cfg.World {
		return fmt.Errorf("cluster: hello claims rank %d outside (0, %d)", h.Rank, c.cfg.World)
	}
	if rendConns[h.Rank] != nil {
		return fmt.Errorf("cluster: rank %d joined twice", h.Rank)
	}
	if h.MeshAddr == "" {
		return fmt.Errorf("cluster: rank %d advertises no mesh address", h.Rank)
	}
	for _, name := range h.Accept {
		if _, err := quant.ParsePolicy(name); err != nil {
			return fmt.Errorf("cluster: rank %d: %w", h.Rank, err)
		}
	}
	return nil
}

// joinWorker runs the non-coordinator side of the rendezvous.
func joinWorker(cfg Config) (*Session, error) {
	rendStart := cfg.Tracer.Now()
	deadline := time.Now().Add(cfg.timeout())
	conn, err := dialCoordinator(cfg.Addr, deadline)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)

	// The mesh listener binds the interface this host reaches the
	// coordinator through, so the advertised address is routable for
	// every peer that can also reach the coordinator.
	meshLn, err := listenMesh(conn.LocalAddr())
	if err != nil {
		return nil, err
	}
	defer meshLn.Close()

	err = writeHello(conn, hello{
		Rank:     cfg.Rank,
		World:    cfg.World,
		MeshAddr: meshLn.Addr().String(),
		Accept:   cfg.Accept,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: send hello: %w", err)
	}
	wel, err := readWelcome(conn)
	if err != nil {
		return nil, err
	}
	if len(wel.Addrs) != cfg.World {
		return nil, fmt.Errorf("cluster: membership table has %d ranks, want %d",
			len(wel.Addrs), cfg.World)
	}
	// The coordinator's welcome fixes the session's heartbeat and
	// elastic settings; only the worker's phi threshold and rejoin
	// budget stay local. A zero interval means the coordinator turned
	// the health plane off; a zero rejoin window, elasticity.
	hb := health.Config{
		Interval: wel.HeartbeatInterval,
		Timeout:  wel.HeartbeatTimeout,
		Phi:      cfg.Health.Phi,
		Disable:  wel.HeartbeatInterval <= 0,
	}.Resolved()
	el := elastic.Config{
		Enable:       wel.RejoinWindow > 0,
		RejoinWindow: wel.RejoinWindow,
		MaxRejoins:   cfg.Elastic.MaxRejoins,
	}.Resolved()

	// Mesh: dial every lower rank — the data link, then the control
	// link when the health plane is on — and accept from every higher
	// rank.
	conns := make([]net.Conn, cfg.World)
	var ctrl []net.Conn
	if !hb.Disable {
		ctrl = make([]net.Conn, cfg.World)
	}
	if err := establishMeshLinks(meshLn, wel.Addrs, cfg.Rank, cfg.World, deadline, conns, ctrl); err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, err
	}
	sess, err := newSession(cfg, wel.Codec, wel.Addrs, conns, ctrl, hb, el, cfg.Addr)
	if err == nil {
		cfg.Tracer.Record(cfg.Rank, obs.PhaseControl, "rendezvous", -1, 0, rendStart, cfg.Tracer.Now()-rendStart)
	}
	return sess, err
}

// establishMeshLinks builds one rank's full share of the mesh: it
// dials every lower rank — the data link, plus the control link when
// ctrl is non-nil — and then accepts the links every higher rank dials
// in, filling conns (and ctrl) completely. The caller owns the slices
// and closes any partially established links on error. Both the fresh
// rendezvous and the rejoin barrier establish their meshes through
// this one sequence, so link-establishment fixes cannot diverge
// between the two paths.
func establishMeshLinks(ln net.Listener, addrs []string, rank, world int, deadline time.Time, conns, ctrl []net.Conn) error {
	for p := 0; p < rank; p++ {
		pc, err := dialMeshLink(addrs[p], rank, p, linkData, deadline)
		if err != nil {
			return err
		}
		conns[p] = pc
		if ctrl != nil {
			cc, err := dialMeshLink(addrs[p], rank, p, linkControl, deadline)
			if err != nil {
				return err
			}
			ctrl[p] = cc
		}
	}
	return acceptMeshLinks(ln, rank, world, deadline, conns, ctrl)
}

// dialMeshLink opens one mesh connection of the given kind to a lower
// rank and writes its preamble.
func dialMeshLink(addr string, from, to int, kind byte, deadline time.Time) (net.Conn, error) {
	pc, err := net.DialTimeout("tcp", addr, time.Until(deadline))
	if err != nil {
		return nil, fmt.Errorf("cluster: dial rank %d at %s: %w", to, addr, err)
	}
	pc.SetDeadline(deadline)
	if err := writeMeshPreamble(pc, from, to, kind); err != nil {
		pc.Close()
		return nil, fmt.Errorf("cluster: mesh preamble to rank %d: %w", to, err)
	}
	return pc, nil
}

// dialCoordinator dials the rendezvous address, retrying until the
// deadline: ranks are launched independently (shell jobs, init
// systems, schedulers), so workers routinely come up before the
// coordinator listens and a connection-refused must mean "not yet",
// not "never".
func dialCoordinator(addr string, deadline time.Time) (net.Conn, error) {
	const retryEvery = 100 * time.Millisecond
	var lastErr error
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("cluster: dial coordinator %s: %w", addr, lastErr)
		}
		conn, err := net.DialTimeout("tcp", addr, remaining)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(min(retryEvery, time.Until(deadline)))
	}
}

// acceptMeshLinks accepts mesh connections on ln until every expected
// link has arrived — one data link per higher rank, plus one control
// link when ctrl is non-nil (the health plane is on) — and slots the
// connections by originating rank and preamble kind. Strays — bad
// preambles, duplicate or impossible claims, control links on a
// data-only session — are dropped, not fatal: an ephemeral mesh port
// is as exposed to scanners as the rendezvous port, and the deadline
// still bounds the wait for the real peers.
func acceptMeshLinks(ln net.Listener, local, world int, deadline time.Time, conns, ctrl []net.Conn) error {
	need := world - 1 - local
	if ctrl != nil {
		need *= 2
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for have := 0; have < need; {
		conn, err := ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: rank %d mesh accept (have %d of %d links): %w",
				local, have, need, err)
		}
		conn.SetDeadline(graceDeadline(deadline))
		from, to, kind, err := readMeshPreamble(conn)
		if err != nil || to != local || from <= local || from >= world {
			conn.Close()
			continue
		}
		var slot []net.Conn
		switch kind {
		case linkData:
			slot = conns
		case linkControl:
			slot = ctrl
		}
		if slot == nil || slot[from] != nil {
			conn.Close()
			continue
		}
		conn.SetDeadline(deadline)
		slot[from] = conn
		have++
	}
	return nil
}

// newSession finalises a rendezvous: clears the handshake deadlines,
// wraps the data mesh into the local rank's Transport, and — when the
// health plane is on — starts the heartbeat monitor over the control
// links with its verdict wired into the fabric's Abort, so a peer
// death interrupts every in-flight exchange with health.ErrPeerDead.
func newSession(cfg Config, policyName string, addrs []string, conns, ctrl []net.Conn, hb health.Config, el elastic.Config, rendAddr string) (*Session, error) {
	policy, err := quant.ParsePolicy(policyName)
	if err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, fmt.Errorf("cluster: negotiated policy: %w", err)
	}
	fabric, monitor, err := establishPlane(cfg.Rank, cfg.World, conns, ctrl, hb)
	if err != nil {
		return nil, err
	}
	return &Session{
		rank:       cfg.Rank,
		world:      cfg.World,
		policyName: policy.Name(),
		policy:     policy,
		fabric:     fabric,
		monitor:    monitor,
		peers:      addrs,
		rendAddr:   rendAddr,
		hb:         hb,
		el:         el,
		accepts:    append([]string(nil), cfg.Accept...),
		tracer:     cfg.Tracer,
	}, nil
}

// establishPlane turns a freshly handshaken set of mesh connections
// into the running transport plane of one rank: handshake deadlines
// cleared, the data links wrapped into a RemoteFabric, and — when
// control links exist — a started monitor whose verdict aborts the
// fabric. It owns the connections: every error path closes them.
func establishPlane(rank, world int, conns, ctrl []net.Conn, hb health.Config) (*comm.RemoteFabric, *health.Monitor, error) {
	for _, set := range [][]net.Conn{conns, ctrl} {
		for _, conn := range set {
			if conn != nil {
				conn.SetDeadline(time.Time{})
			}
		}
	}
	fabric, err := comm.NewRemoteFabric(rank, world, conns)
	if err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, nil, err
	}
	var monitor *health.Monitor
	if ctrl != nil && world > 1 {
		monitor, err = health.NewMonitor(rank, world, ctrl, hb)
		if err != nil {
			fabric.Close()
			closeConns(ctrl)
			return nil, nil, err
		}
		monitor.OnVerdict(func(verr error) { fabric.Abort(verr) })
		monitor.Start()
	}
	return fabric, monitor, nil
}

// listenMesh opens the per-rank mesh listener on an ephemeral port of
// the host in ref (the interface this rank is reachable through),
// falling back to loopback when ref is unspecified.
func listenMesh(ref net.Addr) (net.Listener, error) {
	host := "127.0.0.1"
	if ta, ok := ref.(*net.TCPAddr); ok && ta != nil && ta.IP != nil && !ta.IP.IsUnspecified() {
		host = ta.IP.String()
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		return nil, fmt.Errorf("cluster: mesh listen on %s: %w", host, err)
	}
	return ln, nil
}

func closeConns(conns []net.Conn) {
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}
