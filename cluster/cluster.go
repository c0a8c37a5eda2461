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
// These steps are one rendezvous round. A fresh start is the round in
// which no one holds state; after a peer-death verdict an elastic
// session runs the same round again with a dead slot to refill, a kept
// policy and a step table (rejoin.go).
//
// The result is a Session: rank, world size, negotiated policy and a
// ready Transport. Each rank describes its rendezvous once, as a
// Config, and enters it with Join (or Rejoin, for a replacement);
// repro/lpsgd trains on the session through
// lpsgd.WithClusterSession(sess). The process you actually launch is
// cmd/lpsgd-worker, or lpsgd-train -cluster N on one machine, both
// running a rank through cmd/internal/worker.
package cluster

import (
	"fmt"
	"net"
	"os"
	"slices"
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

// Validate checks the configuration without opening a socket, as
// NewCoordinator, Join and Rejoin do before theirs.
func (c Config) Validate() error {
	if c.World <= 0 {
		return fmt.Errorf("cluster: world size must be positive, got %d", c.World)
	}
	if c.Rank < 0 || c.Rank >= c.World {
		return fmt.Errorf("cluster: rank %d outside world of %d", c.Rank, c.World)
	}
	if c.Addr == "" {
		return fmt.Errorf("cluster: rendezvous address is required")
	}
	// Resolved would quietly rewrite these; a rank that asked for them
	// is misconfigured.
	if c.Timeout < 0 {
		return fmt.Errorf("cluster: handshake timeout must not be negative, got %v", c.Timeout)
	}
	hb := c.Health
	if hb.Interval < 0 || hb.Timeout < 0 {
		return fmt.Errorf("cluster: heartbeat interval %v / timeout %v must not be negative", hb.Interval, hb.Timeout)
	}
	if hb.Timeout > 0 && hb.Timeout < hb.Interval {
		return fmt.Errorf("cluster: heartbeat timeout %v shorter than the interval %v", hb.Timeout, hb.Interval)
	}
	if c.Elastic.RejoinWindow < 0 {
		return fmt.Errorf("cluster: rejoin window must not be negative, got %v", c.Elastic.RejoinWindow)
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
// runs the rendezvous round again (ProtocolVersion 4 rejoin hellos)
// against the same coordinator address, rebuilds the mesh and health
// plane in place, and brokers the state transfer that lets a
// replacement take the dead rank's slot.
type Session struct {
	// cfg is the rank's own configuration, Addr resolved to the
	// rendezvous address every rank can re-dial (rank 0 re-listens on
	// it). Rank 0 announces its health and elastic settings in every
	// welcome; every rank then runs under the welcome's, keeping only
	// its phi threshold and rejoin budget from cfg.
	cfg        Config
	policyName string
	policy     *quant.Policy
	fabric     *comm.RemoteFabric
	monitor    *health.Monitor
	peers      []string

	// The session's resolved elastic settings and the completed
	// rejoin-round count. fabric/monitor/peers/generation are replaced
	// by Rejoin, which runs on the rank's training goroutine; the
	// accessors are not synchronised against it.
	el         elastic.Config
	generation int
}

// Rank returns this process's rank.
func (s *Session) Rank() int { return s.cfg.Rank }

// World returns the number of worker processes.
func (s *Session) World() int { return s.cfg.World }

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
	if err := cfg.Validate(); err != nil {
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
	if err := cfg.Validate(); err != nil {
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
	cfg.Addr = c.Addr()
	return start(cfg, c.ln)
}

// joinWorker runs the non-coordinator side of the rendezvous.
func joinWorker(cfg Config) (*Session, error) { return start(cfg, nil) }

// start runs the fresh rendezvous for one rank — rank 0 coordinating
// it over ln — and returns the session it forms.
func start(cfg Config, ln net.Listener) (*Session, error) {
	cfg.Accept = slices.Clone(cfg.Accept)
	s := &Session{cfg: cfg}
	if _, err := s.enter(ln, -1, elastic.LocalState{}, cfg.timeout()); err != nil {
		return nil, err
	}
	return s, nil
}

// round describes one rendezvous round. A fresh start is the round in
// which no one holds state: no dead slot, generation 0, a policy still
// to negotiate and no step table. A rejoin round refills the dead slot,
// announces the next generation, keeps the session policy and collects
// the step table.
type round struct {
	world int
	// dead is the slot a rejoin round refills, -1 on a fresh start.
	dead int
	// wel is what rank 0 announces besides the membership: the
	// session's health-plane and elastic parameters, the generation
	// and, on a rejoin round, the kept policy. The coordinator's word is
	// what makes every rank run the same detection settings, establish
	// (or skip) the control links in agreement, and hold (or not) a
	// rejoin barrier after a death verdict.
	wel welcome
}

func (r round) rejoin() bool { return r.dead >= 0 }

// round describes the round this session enters next: a fresh start
// when dead is -1, else the rejoin round that refills slot dead. Only
// rank 0's settings reach the welcome.
func (s *Session) round(dead int) round {
	r := round{world: s.cfg.World, dead: dead}
	if hb := s.cfg.Health.Resolved(); !hb.Disable {
		r.wel.HeartbeatInterval, r.wel.HeartbeatTimeout = hb.Interval, hb.Timeout
	}
	if el := s.cfg.Elastic.Resolved(); el.Enable {
		r.wel.RejoinWindow = el.RejoinWindow
	}
	if r.rejoin() {
		r.wel.Policy, r.wel.Generation = s.policyName, s.generation+1
	}
	return r
}

// enter runs one round for this rank — rank 0 coordinates it over ln,
// every other rank dials s.cfg.Addr — within window, and stands the
// session up on the result. local is what this rank brings to the
// round: its completed step and, on a rejoin round, the callbacks
// that move state.
func (s *Session) enter(ln net.Listener, dead int, local elastic.LocalState, window time.Duration) (*elastic.Outcome, error) {
	begin := s.cfg.Tracer.Now()
	deadline := time.Now().Add(window)
	r := s.round(dead)
	own := hello{Rank: s.cfg.Rank, World: s.cfg.World, Accept: s.cfg.Accept, Rejoin: r.rejoin(), Step: local.Step}
	var wel welcome
	var conns, ctrl []net.Conn
	var err error
	if s.cfg.Rank == 0 {
		wel, conns, ctrl, err = coordinate(ln, r, own, deadline)
	} else {
		wel, conns, ctrl, err = dial(s.cfg.Addr, own, deadline)
	}
	if err != nil {
		return nil, err
	}
	out, err := s.run(wel, conns, ctrl, local)
	if err != nil {
		return nil, err
	}
	span, peer := "rendezvous", dead
	if r.rejoin() {
		span = "rejoin"
	}
	if dead == s.cfg.Rank {
		peer = -1 // a replacement names no dead peer
	}
	s.cfg.Tracer.Record(s.cfg.Rank, obs.PhaseControl, span, peer, 0, begin, s.cfg.Tracer.Now()-begin)
	return out, nil
}

// coordinate runs rank 0's side of a round over ln: collect one hello
// per slot, open the mesh listener, settle the policy, broadcast the
// welcome and accept the mesh. own is rank 0's hello, with the accept
// set and completed step it brings.
func coordinate(ln net.Listener, r round, own hello, deadline time.Time) (welcome, []net.Conn, []net.Conn, error) {
	wel := r.wel
	wel.Addrs = make([]string, r.world)
	accepts := make([][]string, r.world)
	steps := make([]int64, r.world)
	accepts[0], steps[0] = own.Accept, own.Step

	// Phase 1: collect one hello per slot.
	rendConns := make([]net.Conn, r.world)
	defer closeConns(rendConns)
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for joined := 1; joined < r.world; {
		conn, err := ln.Accept()
		if err != nil {
			return wel, nil, nil, fmt.Errorf("cluster: rendezvous accept (have %d of %d ranks): %w",
				joined, r.world, err)
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
		if err := r.check(h, rendConns); err != nil {
			// The reject is written at the offender's own version so
			// another build can display it.
			writeReject(conn, h.Version, err.Error())
			conn.Close()
			if r.rejoin() {
				// The rejoin barrier exists to ride out chaos: a
				// wrong-world stray, an old build, a hello for an
				// impossible slot must not kill a repair the window
				// still has time to complete. Keep the barrier open.
				continue
			}
			// On a fresh start a well-formed hello that conflicts with
			// the cluster's own configuration is one of its own ranks
			// misconfigured: a cluster that cannot agree on its own
			// membership must not train.
			return wel, nil, nil, fmt.Errorf("cluster: rejected hello: %w", err)
		}
		if rendConns[h.Rank] != nil {
			// A rejoin slot claimed twice (check refuses it on a fresh
			// start): the newest connection wins. The stale one is a
			// replacement (or survivor) that crashed or lost its link
			// after its hello — its supervisor relaunched it, and
			// holding the dead connection would just burn the window.
			rendConns[h.Rank].Close()
			joined--
		}
		rendConns[h.Rank] = conn
		accepts[h.Rank], steps[h.Rank], wel.Addrs[h.Rank] = h.Accept, h.Step, h.MeshAddr
		joined++
	}

	// Phase 2: settle the policy. A fresh start negotiates it over
	// every rank's accepted set, the coordinator's own included; a
	// rejoin round keeps the session's and announces the step table.
	if r.rejoin() {
		wel.Steps = steps
	} else if name, err := Negotiate(accepts...); err != nil {
		for _, conn := range rendConns {
			if conn != nil {
				writeReject(conn, 0, err.Error())
			}
		}
		return wel, nil, nil, err
	} else {
		wel.Policy = name
	}

	// The coordinator's mesh listener binds the interface the workers
	// actually reached it through (the local end of any rendezvous
	// connection), so the advertised address stays routable even when
	// the rendezvous listener is bound to a wildcard like ":7070".
	meshRef := ln.Addr()
	for _, conn := range rendConns {
		if conn != nil {
			meshRef = conn.LocalAddr()
			break
		}
	}
	meshLn, err := listenMesh(meshRef)
	if err != nil {
		return wel, nil, nil, err
	}
	defer meshLn.Close()
	wel.Addrs[0] = meshLn.Addr().String()

	// Phase 3: broadcast the membership table with the round's
	// parameters.
	for rank := 1; rank < r.world; rank++ {
		if err := writeWelcome(rendConns[rank], wel); err != nil {
			return wel, nil, nil, fmt.Errorf("cluster: welcome rank %d: %w", rank, err)
		}
	}

	// Phase 4: establish the mesh. Rank 0 is the lowest rank, so it
	// only accepts.
	conns, ctrl, err := establishMeshLinks(meshLn, wel, 0, deadline)
	return wel, conns, ctrl, err
}

// check validates one hello against the round and the slots already
// taken. A fresh start refuses a second claim on a slot; a rejoin round
// lets the newest claim win, and also requires the replacement to
// accept the kept policy and every survivor to hold state.
func (r round) check(h hello, taken []net.Conn) error {
	if h.Version != ProtocolVersion {
		return fmt.Errorf("cluster: a worker speaks rendezvous protocol version %d, this build speaks %d (the session needs matching builds)",
			h.Version, ProtocolVersion)
	}
	if h.Rejoin && !r.rejoin() {
		return fmt.Errorf("cluster: rank %d sent a rejoin hello, but this rendezvous is forming a fresh session (launch without -rejoin, or point the worker at a session that lost a rank)", h.Rank)
	}
	if !h.Rejoin && r.rejoin() {
		return fmt.Errorf("cluster: rank %d sent a fresh hello to a rejoin barrier; a running session lost rank %d and only takes rejoins", h.Rank, r.dead)
	}
	if h.World != r.world {
		return fmt.Errorf("cluster: rank %d expects a world of %d, the session has %d", h.Rank, h.World, r.world)
	}
	if h.Rank <= 0 || h.Rank >= r.world {
		return fmt.Errorf("cluster: hello claims rank %d outside (0, %d)", h.Rank, r.world)
	}
	if taken[h.Rank] != nil && !r.rejoin() {
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
	switch {
	case !r.rejoin():
	case h.Rank == r.dead:
		// The replacement never negotiated: it must accept the policy
		// the session already trains under, or it could not decode a
		// single frame.
		if err := acceptsPolicy(h.Accept, r.wel.Policy); err != nil {
			return fmt.Errorf("cluster: replacement for rank %d: %w", r.dead, err)
		}
	case h.Step < 0:
		return fmt.Errorf("cluster: surviving rank %d claims no training state (step %d)", h.Rank, h.Step)
	}
	return nil
}

// dial runs the side of a round every rank but 0 runs: dial the
// rendezvous, send own with this rank's mesh address filled in, read
// the welcome and establish this rank's share of the mesh.
func dial(addr string, own hello, deadline time.Time) (welcome, []net.Conn, []net.Conn, error) {
	var wel welcome
	conn, err := dialCoordinator(addr, deadline)
	if err != nil {
		return wel, nil, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)

	// The mesh listener binds the interface this host reaches the
	// coordinator through, so the advertised address is routable for
	// every peer that can also reach the coordinator.
	meshLn, err := listenMesh(conn.LocalAddr())
	if err != nil {
		return wel, nil, nil, err
	}
	defer meshLn.Close()

	own.MeshAddr = meshLn.Addr().String()
	if err := writeHello(conn, own); err != nil {
		return wel, nil, nil, fmt.Errorf("cluster: send hello: %w", err)
	}
	if wel, err = readWelcome(conn); err != nil {
		return wel, nil, nil, err
	}
	switch {
	case len(wel.Addrs) != own.World:
		err = fmt.Errorf("cluster: membership table has %d ranks, want %d", len(wel.Addrs), own.World)
	case own.Rejoin && len(wel.Steps) != own.World:
		err = fmt.Errorf("cluster: rejoin welcome carries no step table")
	case own.Rejoin && wel.HeartbeatInterval <= 0:
		err = fmt.Errorf("cluster: rejoin welcome disables the health plane, which elastic sessions require")
	}
	if err != nil {
		return wel, nil, nil, err
	}
	conns, ctrl, err := establishMeshLinks(meshLn, wel, own.Rank, deadline)
	return wel, conns, ctrl, err
}

// run stands the session up on a completed round. Every rank, rank 0
// included, takes the policy, membership, generation and the heartbeat
// and elastic settings from the welcome; only the phi threshold and
// the rejoin budget stay local. A zero heartbeat interval means the
// coordinator turned the health plane off; a zero rejoin window,
// elasticity. The links become the rank's plane, and on a rejoin round
// (the welcome carries a step table) the donor's state moves to every
// rank behind the resume point. It owns the links: every error path
// closes them.
func (s *Session) run(wel welcome, conns, ctrl []net.Conn, local elastic.LocalState) (*elastic.Outcome, error) {
	policy, err := quant.ParsePolicy(wel.Policy)
	if err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, fmt.Errorf("cluster: session policy: %w", err)
	}
	hb := health.Config{
		Interval: wel.HeartbeatInterval,
		Timeout:  wel.HeartbeatTimeout,
		Phi:      s.cfg.Health.Phi,
		Disable:  wel.HeartbeatInterval <= 0,
	}.Resolved()
	fabric, monitor, err := establishPlane(s.cfg.Rank, s.cfg.World, conns, ctrl, hb)
	if err != nil {
		return nil, err
	}
	out := &elastic.Outcome{Fabric: fabric, Monitor: monitor, Generation: wel.Generation}
	if len(wel.Steps) > 0 {
		out.ResumeStep, _ = resumePoint(wel.Steps)
		if out.Installed, err = transferState(fabric, s.cfg.Rank, wel.Steps, local); err != nil {
			if monitor != nil {
				monitor.Close()
			}
			fabric.Close()
			return nil, err
		}
	}
	s.policyName, s.policy = policy.Name(), policy
	s.fabric, s.monitor, s.peers, s.generation = fabric, monitor, wel.Addrs, wel.Generation
	s.el = elastic.Config{
		Enable:       wel.RejoinWindow > 0,
		RejoinWindow: wel.RejoinWindow,
		MaxRejoins:   s.cfg.Elastic.MaxRejoins,
	}.Resolved()
	return out, nil
}

// establishMeshLinks builds one rank's full share of the mesh the
// welcome describes: it dials every lower rank — the data link, plus
// the control link when the welcome turns the health plane on — and
// then accepts the links every higher rank dials in. On error it
// closes whatever it established.
func establishMeshLinks(ln net.Listener, wel welcome, rank int, deadline time.Time) (conns, ctrl []net.Conn, err error) {
	world := len(wel.Addrs)
	conns = make([]net.Conn, world)
	if wel.HeartbeatInterval > 0 {
		ctrl = make([]net.Conn, world)
	}
	for p := 0; p < rank && err == nil; p++ {
		if conns[p], err = dialMeshLink(wel.Addrs[p], rank, p, linkData, deadline); err == nil && ctrl != nil {
			ctrl[p], err = dialMeshLink(wel.Addrs[p], rank, p, linkControl, deadline)
		}
	}
	if err == nil {
		err = acceptMeshLinks(ln, rank, world, deadline, conns, ctrl)
	}
	if err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, nil, err
	}
	return conns, ctrl, nil
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
	lastErr := os.ErrDeadlineExceeded // a deadline already past never dials
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
