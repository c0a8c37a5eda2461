package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/comm"
	"repro/elastic"
	"repro/health"
	"repro/obs"
	"repro/quant"
)

// This file implements the elastic-rejoin half of the rendezvous
// protocol (ProtocolVersion 4). The flow mirrors the original
// rendezvous deliberately — same address, same hello/welcome/mesh
// phases, same stray handling — so that a rejoin round is "the
// rendezvous again, minus negotiation, plus a step table":
//
//  1. A peer-death verdict reaches every survivor (repro/health). Each
//     survivor's trainer quiesces at the step barrier its abort unwound
//     to and calls Session.Rejoin.
//  2. Rank 0 re-opens the original rendezvous address and collects one
//     rejoin hello per slot: survivors announce their completed step
//     counts, and a replacement process (cluster.Rejoin, launched by a
//     supervisor as `lpsgd-worker -rejoin`) claims the dead rank's slot
//     with step -1.
//  3. The welcome broadcasts the next session generation and the full
//     step table. Everyone derives the same resume point (the maximum
//     completed step — a synchronous exchange cannot complete anywhere
//     unless every rank contributed, so survivors are at most one step
//     apart and the maximum is a state an uninterrupted run reaches),
//     the same donor (the lowest rank holding it) and the same
//     catch-up set (every rank behind it).
//  4. The mesh and control links are re-established exactly as in the
//     original rendezvous, and the donor streams the elastic.Snapshot
//     to every catch-up rank over the new data links.
//
// If anything fails — the window expires, a second rank dies, the
// coordinator itself was the casualty — Rejoin returns an error and
// the caller surfaces the original verdict: elasticity degrades to
// PR 4's coordinated abort, never to a hang.

// ErrNotElastic is returned by Session.Rejoin when the coordinator did
// not enable elastic sessions for this cluster.
var ErrNotElastic = errors.New("cluster: session is not elastic (the coordinator did not enable rejoin)")

// Rejoin repairs the session after a peer-death verdict: survivors
// re-rendezvous at the original coordinator address, a replacement is
// admitted into the dead rank's slot, the mesh and health plane are
// rebuilt in place, and training state flows from the donor to every
// rank behind the resume point. It implements elastic.Rejoiner and is
// called from the rank's training goroutine; on success the session's
// Fabric, Monitor and Generation are replaced. On failure the old
// plane stays torn down and the caller should surface the original
// verdict.
func (s *Session) Rejoin(verdict error, local elastic.LocalState) (*elastic.Outcome, error) {
	if !s.el.Enable {
		return nil, ErrNotElastic
	}
	var dead health.ErrPeerDead
	if !errors.As(verdict, &dead) {
		return nil, fmt.Errorf("cluster: rejoin needs a health.ErrPeerDead verdict, got: %v", verdict)
	}
	if dead.Rank == 0 {
		return nil, fmt.Errorf("cluster: rank 0 (the coordinator) died; a session cannot outlive its rejoin listener")
	}
	if dead.Rank < 0 || dead.Rank >= s.world || dead.Rank == s.rank {
		return nil, fmt.Errorf("cluster: verdict names rank %d, which rank %d of %d cannot repair", dead.Rank, s.rank, s.world)
	}
	// Quiesce the old plane. Close waits for the in-flight abort
	// broadcast and says its byes even though a verdict is held — a
	// survivor's sockets vanishing unannounced would read as a second
	// death on any peer that has not reached its own verdict yet (see
	// health.Monitor.Close). The fabric was already aborted by the
	// verdict handler, so its Close is an idempotent backstop.
	if s.monitor != nil {
		s.monitor.Close()
	}
	s.fabric.Close()

	rejoinStart := s.tracer.Now()
	deadline := time.Now().Add(s.el.RejoinWindow)
	var out *elastic.Outcome
	var addrs []string
	var err error
	if s.rank == 0 {
		out, addrs, err = s.rejoinCoordinate(dead.Rank, local, deadline)
	} else {
		out, addrs, err = s.rejoinDial(local, deadline)
	}
	if err != nil {
		return nil, err
	}
	s.fabric = out.Fabric
	s.monitor = out.Monitor
	s.generation = out.Generation
	s.peers = addrs
	s.tracer.Record(s.rank, obs.PhaseControl, "rejoin", dead.Rank, 0, rejoinStart, s.tracer.Now()-rejoinStart)
	return out, nil
}

// rejoinCoordinate runs rank 0's side of a rejoin round.
func (s *Session) rejoinCoordinate(deadRank int, local elastic.LocalState, deadline time.Time) (*elastic.Outcome, []string, error) {
	ln, err := net.Listen("tcp", s.rendAddr)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: reopen rendezvous %s: %w", s.rendAddr, err)
	}
	defer ln.Close()

	steps := make([]int64, s.world)
	steps[0] = local.Step
	addrs := make([]string, s.world)
	rendConns := make([]net.Conn, s.world)
	defer func() {
		for _, conn := range rendConns {
			if conn != nil {
				conn.Close()
			}
		}
	}()
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline)
	}
	for joined := 1; joined < s.world; {
		conn, err := ln.Accept()
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: rejoin accept (have %d of %d ranks): %w",
				joined, s.world, err)
		}
		conn.SetDeadline(graceDeadline(deadline))
		h, err := readHello(conn)
		conn.SetDeadline(deadline)
		if err != nil {
			// Strays are dropped exactly as during the original
			// rendezvous; the window still bounds the wait.
			writeReject(conn, 0, err.Error())
			conn.Close()
			continue
		}
		if err := s.checkRejoinHello(h, deadRank); err != nil {
			// Unlike the fresh rendezvous — where a conflicting hello is
			// one of your own ranks misconfigured and the only honest
			// move is to fail — the rejoin barrier exists to ride out
			// chaos: a wrong-world stray, an old build, a hello for an
			// impossible slot must not kill a repair the window still
			// has time to complete. Reject the connection, keep the
			// barrier open.
			writeReject(conn, h.Version, err.Error())
			conn.Close()
			continue
		}
		if rendConns[h.Rank] != nil {
			// A slot claimed twice: the newest connection wins. The
			// stale one is a replacement (or survivor) that crashed or
			// lost its link after its hello — its supervisor relaunched
			// it, and holding the dead connection would just burn the
			// window.
			rendConns[h.Rank].Close()
			joined--
		}
		rendConns[h.Rank] = conn
		steps[h.Rank] = h.Step
		addrs[h.Rank] = h.MeshAddr
		joined++
	}

	meshRef := ln.Addr()
	for _, conn := range rendConns {
		if conn != nil {
			meshRef = conn.LocalAddr()
			break
		}
	}
	meshLn, err := listenMesh(meshRef)
	if err != nil {
		return nil, nil, err
	}
	defer meshLn.Close()
	addrs[0] = meshLn.Addr().String()

	wel := welcome{
		Codec:             s.policyName,
		Addrs:             addrs,
		HeartbeatInterval: s.hb.Interval,
		HeartbeatTimeout:  s.hb.Timeout,
		Generation:        s.generation + 1,
		RejoinWindow:      s.el.RejoinWindow,
		Steps:             steps,
	}
	for rank := 1; rank < s.world; rank++ {
		if err := writeWelcome(rendConns[rank], wel); err != nil {
			return nil, nil, fmt.Errorf("cluster: rejoin welcome rank %d: %w", rank, err)
		}
	}

	conns := make([]net.Conn, s.world)
	ctrl := make([]net.Conn, s.world) // elastic sessions imply the health plane
	if err := acceptMeshLinks(meshLn, 0, s.world, deadline, conns, ctrl); err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, nil, err
	}
	out, err := finishRejoin(0, s.world, conns, ctrl, s.hb, wel.Generation, steps, local)
	return out, addrs, err
}

// checkRejoinHello validates one hello against an open rejoin barrier.
func (s *Session) checkRejoinHello(h hello, deadRank int) error {
	if h.Version != ProtocolVersion {
		return fmt.Errorf("cluster: a worker speaks rendezvous protocol version %d, this build speaks %d (elastic rejoin needs matching builds)",
			h.Version, ProtocolVersion)
	}
	if !h.Rejoin {
		return fmt.Errorf("cluster: rank %d sent a fresh hello to a rejoin barrier; a running session lost rank %d and only takes rejoins", h.Rank, deadRank)
	}
	if h.World != s.world {
		return fmt.Errorf("cluster: rank %d expects a world of %d, the session has %d", h.Rank, h.World, s.world)
	}
	if h.Rank <= 0 || h.Rank >= s.world {
		return fmt.Errorf("cluster: rejoin hello claims rank %d outside (0, %d)", h.Rank, s.world)
	}
	if h.MeshAddr == "" {
		return fmt.Errorf("cluster: rank %d advertises no mesh address", h.Rank)
	}
	if h.Rank == deadRank {
		// The replacement never negotiated: it must accept the policy
		// the session already trains under, or it could not decode a
		// single frame.
		if err := acceptsPolicy(h.Accept, s.policyName); err != nil {
			return fmt.Errorf("cluster: replacement for rank %d: %w", deadRank, err)
		}
	} else if h.Step < 0 {
		return fmt.Errorf("cluster: surviving rank %d claims no training state (step %d)", h.Rank, h.Step)
	}
	return nil
}

// acceptsPolicy reports whether an advertised accept set contains the
// session policy by canonical spelling. The Floor is always implicitly
// accepted, exactly as during negotiation.
func acceptsPolicy(accepts []string, policyName string) error {
	if policyName == Floor {
		return nil
	}
	for _, name := range accepts {
		p, err := quant.ParsePolicy(name)
		if err != nil {
			return err
		}
		if p.Name() == policyName {
			return nil
		}
	}
	return fmt.Errorf("does not accept the session policy %q", policyName)
}

// rejoinDial runs a surviving worker's side of a rejoin round.
func (s *Session) rejoinDial(local elastic.LocalState, deadline time.Time) (*elastic.Outcome, []string, error) {
	wel, conns, ctrl, err := rejoinHandshake(s.rendAddr, s.rank, s.world, s.accepts, local.Step, deadline)
	if err != nil {
		return nil, nil, err
	}
	out, err := finishRejoin(s.rank, s.world, conns, ctrl, s.hb, wel.Generation, wel.Steps, local)
	return out, wel.Addrs, err
}

// rejoinHandshake dials the coordinator's reopened rendezvous, claims a
// slot with a rejoin hello, and establishes this rank's share of the
// new mesh. step is the caller's completed step count (-1 for a
// replacement without state). The coordinator may come up after the
// caller — survivors race out of their aborts — so the dial retries
// until the deadline.
func rejoinHandshake(addr string, rank, world int, accepts []string, step int64, deadline time.Time) (welcome, []net.Conn, []net.Conn, error) {
	var wel welcome
	conn, err := dialCoordinator(addr, deadline)
	if err != nil {
		return wel, nil, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)

	meshLn, err := listenMesh(conn.LocalAddr())
	if err != nil {
		return wel, nil, nil, err
	}
	defer meshLn.Close()

	err = writeHello(conn, hello{
		Rank:     rank,
		World:    world,
		MeshAddr: meshLn.Addr().String(),
		Accept:   accepts,
		Rejoin:   true,
		Step:     step,
	})
	if err != nil {
		return wel, nil, nil, fmt.Errorf("cluster: send rejoin hello: %w", err)
	}
	wel, err = readWelcome(conn)
	if err != nil {
		return wel, nil, nil, err
	}
	if len(wel.Addrs) != world {
		return wel, nil, nil, fmt.Errorf("cluster: rejoin membership table has %d ranks, want %d", len(wel.Addrs), world)
	}
	if len(wel.Steps) != world {
		return wel, nil, nil, fmt.Errorf("cluster: rejoin welcome carries no step table")
	}
	if wel.HeartbeatInterval <= 0 {
		return wel, nil, nil, fmt.Errorf("cluster: rejoin welcome disables the health plane, which elastic sessions require")
	}

	conns := make([]net.Conn, world)
	ctrl := make([]net.Conn, world) // elastic sessions imply the health plane
	if err := establishMeshLinks(meshLn, wel.Addrs, rank, world, deadline, conns, ctrl); err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return wel, nil, nil, err
	}
	return wel, conns, ctrl, nil
}

// finishRejoin stands the new transport plane up over freshly
// handshaken links and runs the state transfer, composing the outcome
// every path (coordinator, survivor, replacement) returns.
func finishRejoin(rank, world int, conns, ctrl []net.Conn, hb health.Config, generation int, steps []int64, local elastic.LocalState) (*elastic.Outcome, error) {
	fabric, monitor, err := establishPlane(rank, world, conns, ctrl, hb)
	if err != nil {
		return nil, err
	}
	installed, err := transferState(fabric, rank, steps, local)
	if err != nil {
		if monitor != nil {
			monitor.Close()
		}
		fabric.Close()
		return nil, err
	}
	resume, _ := resumePoint(steps)
	return &elastic.Outcome{
		Fabric:     fabric,
		Monitor:    monitor,
		Generation: generation,
		ResumeStep: resume,
		Installed:  installed,
	}, nil
}

// resumePoint derives the agreed resume step and the donor from a step
// table: the maximum completed step, donated by the lowest rank that
// holds it. Every rank computes this over the same broadcast table, so
// all agree without another message.
func resumePoint(steps []int64) (resume int64, donor int) {
	donor = -1
	for r, st := range steps {
		if donor < 0 || st > resume {
			resume, donor = st, r
		}
	}
	return resume, donor
}

// transferState moves the donor's snapshot to every rank behind the
// resume point over the new data mesh, and installs a received one
// locally. It returns the snapshot this rank installed (nil for the
// donor and for in-sync survivors).
func transferState(fabric *comm.RemoteFabric, rank int, steps []int64, local elastic.LocalState) (*elastic.Snapshot, error) {
	resume, donor := resumePoint(steps)
	if donor < 0 {
		return nil, fmt.Errorf("cluster: empty step table")
	}
	if rank == donor {
		if local.Snapshot == nil {
			return nil, fmt.Errorf("cluster: rank %d elected donor but supplies no snapshot", rank)
		}
		snap, err := local.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("cluster: donor snapshot: %w", err)
		}
		if snap.Step != resume {
			return nil, fmt.Errorf("cluster: donor snapshot at step %d, resume point is %d", snap.Step, resume)
		}
		var buf bytes.Buffer
		if err := snap.EncodeTo(&buf); err != nil {
			return nil, err
		}
		for r, st := range steps {
			if r == rank || st >= resume {
				continue
			}
			if err := fabric.Send(rank, r, nil, buf.Bytes()); err != nil {
				return nil, fmt.Errorf("cluster: stream snapshot to rank %d: %w", r, err)
			}
		}
		return nil, nil
	}
	if steps[rank] >= resume {
		return nil, nil
	}
	wire, err := fabric.Recv(donor, rank)
	if err != nil {
		return nil, fmt.Errorf("cluster: receive snapshot from donor rank %d: %w", donor, err)
	}
	snap, err := elastic.ReadSnapshot(bytes.NewReader(wire))
	if err != nil {
		return nil, err
	}
	if snap.Step != resume {
		return nil, fmt.Errorf("cluster: snapshot at step %d, resume point is %d", snap.Step, resume)
	}
	if local.Install != nil {
		if err := local.Install(snap); err != nil {
			return nil, fmt.Errorf("cluster: install snapshot: %w", err)
		}
	}
	return snap, nil
}

// Rejoin joins this process into a running elastic session as the
// replacement for a dead rank: it dials the session's rendezvous
// address (retrying while the survivors converge on the rejoin
// barrier), claims cfg.Rank's slot with a step -1 rejoin hello,
// re-establishes the mesh, and receives the session snapshot from the
// donor. The returned session is a full member — future deaths of
// other ranks are repairable through it — and the snapshot is the
// training state to restore before resuming (parallel.Trainer.Restore).
// cfg.Timeout bounds the whole attempt; it should comfortably exceed
// the cluster's failure-detection timeout, since the barrier only opens
// once the survivors reach their verdict.
func Rejoin(cfg Config) (*Session, *elastic.Snapshot, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Rank == 0 {
		return nil, nil, fmt.Errorf("cluster: rank 0 is the coordinator and cannot be replaced")
	}
	rejoinStart := cfg.Tracer.Now()
	deadline := time.Now().Add(cfg.timeout())
	wel, conns, ctrl, err := rejoinHandshake(cfg.Addr, cfg.Rank, cfg.World, cfg.Accept, -1, deadline)
	if err != nil {
		return nil, nil, err
	}
	policy, err := quant.ParsePolicy(wel.Codec)
	if err != nil {
		closeConns(conns)
		closeConns(ctrl)
		return nil, nil, fmt.Errorf("cluster: session policy: %w", err)
	}
	hb := health.Config{
		Interval: wel.HeartbeatInterval,
		Timeout:  wel.HeartbeatTimeout,
		Phi:      cfg.Health.Phi,
	}.Resolved()
	out, err := finishRejoin(cfg.Rank, cfg.World, conns, ctrl, hb, wel.Generation, wel.Steps, elastic.LocalState{Step: -1})
	if err != nil {
		return nil, nil, err
	}
	if out.Installed == nil {
		out.Monitor.Close()
		out.Fabric.Close()
		return nil, nil, fmt.Errorf("cluster: rejoin completed without a state snapshot")
	}
	sess := &Session{
		rank:       cfg.Rank,
		world:      cfg.World,
		policyName: policy.Name(),
		policy:     policy,
		fabric:     out.Fabric,
		monitor:    out.Monitor,
		peers:      wel.Addrs,
		rendAddr:   cfg.Addr,
		hb:         hb,
		el: elastic.Config{
			Enable:       wel.RejoinWindow > 0,
			RejoinWindow: wel.RejoinWindow,
			MaxRejoins:   cfg.Elastic.MaxRejoins,
		}.Resolved(),
		accepts:    append([]string(nil), cfg.Accept...),
		generation: out.Generation,
	}
	sess.tracer = cfg.Tracer
	cfg.Tracer.Record(cfg.Rank, obs.PhaseControl, "rejoin", -1, 0, rejoinStart, cfg.Tracer.Now()-rejoinStart)
	return sess, out.Installed, nil
}
