package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"

	"repro/comm"
	"repro/elastic"
	"repro/health"
	"repro/quant"
)

// This file implements the elastic half of the rendezvous protocol
// (ProtocolVersion 4). A rejoin round is the rendezvous round itself —
// same address, same hello/welcome/mesh phases, same stray handling,
// the same coordinate, dial, check and run — entered with a dead slot:
// it keeps the session policy instead of negotiating one, and it
// carries a step table. A fresh start is simply the round in which no
// one holds state.
//
//  1. A peer-death verdict reaches every survivor (repro/health). Each
//     survivor's trainer quiesces at the step barrier its abort unwound
//     to and calls Session.Rejoin.
//  2. Rank 0 re-opens the original rendezvous address and collects one
//     rejoin hello per slot: survivors announce their completed step
//     counts, and a replacement process (cluster.Rejoin, launched by a
//     supervisor as `lpsgd-worker -rejoin`) claims the dead rank's slot
//     with step -1. Unlike a fresh start, the barrier rejects a
//     conflicting hello and keeps waiting, and a second claim on a slot
//     replaces the first.
//  3. The welcome broadcasts the next session generation and the full
//     step table. Everyone derives the same resume point (the maximum
//     completed step — a synchronous exchange cannot complete anywhere
//     unless every rank contributed, so survivors are at most one step
//     apart and the maximum is a state an uninterrupted run reaches),
//     the same donor (the lowest rank holding it) and the same
//     catch-up set (every rank behind it).
//  4. The mesh and control links are established as in every round,
//     and the donor streams the elastic.Snapshot to every catch-up rank
//     over the new data links.
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
	if dead.Rank < 0 || dead.Rank >= s.cfg.World || dead.Rank == s.cfg.Rank {
		return nil, fmt.Errorf("cluster: verdict names rank %d, which rank %d of %d cannot repair", dead.Rank, s.cfg.Rank, s.cfg.World)
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

	var ln net.Listener
	if s.cfg.Rank == 0 {
		var err error
		if ln, err = net.Listen("tcp", s.cfg.Addr); err != nil {
			return nil, fmt.Errorf("cluster: reopen rendezvous %s: %w", s.cfg.Addr, err)
		}
		defer ln.Close()
	}
	return s.enter(ln, dead.Rank, local, s.el.RejoinWindow)
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
		// The sends borrow buf until they are on the sockets.
		if err := fabric.Flush(rank); err != nil {
			return nil, fmt.Errorf("cluster: stream snapshot: %w", err)
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
	cfg.Accept = slices.Clone(cfg.Accept)
	s := &Session{cfg: cfg}
	out, err := s.enter(nil, cfg.Rank, elastic.LocalState{Step: -1}, cfg.timeout())
	if err != nil {
		return nil, nil, err
	}
	if out.Installed == nil {
		s.Close()
		return nil, nil, fmt.Errorf("cluster: rejoin completed without a state snapshot")
	}
	return s, out.Installed, nil
}
