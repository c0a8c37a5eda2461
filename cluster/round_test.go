package cluster

import (
	"errors"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/elastic"
	"repro/health"
	"repro/internal/wire"
)

// TestRejoinBarrierRidesOutStrays: an open rejoin barrier answers every
// conflicting hello — a fresh hello, a wrong world, an older build, a
// survivor without state, a replacement that cannot decode the session
// policy — with a reject and keeps waiting; a slot claimed twice goes
// to the newest claim. The round then completes as if the strays had
// never come: generation 1, the donor's step, and the donor's snapshot
// installed by the replacement.
func TestRejoinBarrierRidesOutStrays(t *testing.T) {
	const world, victim, policy = 3, 2, "qsgd4b512"
	const step = 5
	cfg := Config{
		World:   world,
		Accept:  []string{policy},
		Timeout: 20 * time.Second,
		Health:  health.Config{Interval: 25 * time.Millisecond, Timeout: 400 * time.Millisecond},
	}
	sessions, addr := joinElastic(t, cfg, 20*time.Second)

	// SIGKILL stand-in for rank 2; both survivors reach the verdict.
	sessions[victim].Monitor().Kill()
	verdicts := make([]error, victim)
	for r := range verdicts {
		select {
		case <-sessions[r].Monitor().Dead():
			verdicts[r] = sessions[r].Monitor().Verdict()
		case <-time.After(5 * time.Second):
			t.Fatalf("rank %d reached no verdict", r)
		}
	}
	sessions[victim].Close()

	snap := &elastic.Snapshot{
		Seed: 7, World: world, Policy: policy, Step: step, Batch: step - 1,
		Params:   []byte("params"),
		Velocity: [][]float32{{1, -2}, {0.5}},
	}
	type result struct {
		out *elastic.Outcome
		err error
	}
	survivors := make([]chan result, victim)
	rejoin := func(rank int, local elastic.LocalState) {
		survivors[rank] = make(chan result, 1)
		go func() {
			out, err := sessions[rank].Rejoin(verdicts[rank], local)
			survivors[rank] <- result{out, err}
		}()
	}
	rejoin(0, elastic.LocalState{Step: step, Snapshot: func() (*elastic.Snapshot, error) { return snap, nil }})

	deadline := time.Now().Add(10 * time.Second)
	dial := func() net.Conn {
		t.Helper()
		conn, err := dialCoordinator(addr, deadline)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(deadline)
		return conn
	}
	// reject sends h and requires a reject naming want, never a welcome.
	reject := func(h hello, want string) {
		t.Helper()
		conn := dial()
		if err := writeHello(conn, h); err != nil {
			t.Fatal(err)
		}
		_, err := readWelcome(conn)
		if err == nil || !strings.Contains(err.Error(), "rejected") || !strings.Contains(err.Error(), want) {
			t.Fatalf("hello %+v: got %v, want a reject naming %q", h, err, want)
		}
	}
	mesh := "127.0.0.1:9"
	accept := []string{policy}
	reject(hello{Rank: 1, World: world, MeshAddr: mesh, Accept: accept}, "fresh hello")
	reject(hello{Rank: victim, World: world + 2, MeshAddr: mesh, Accept: accept, Rejoin: true, Step: -1}, "world")
	reject(hello{Rank: 1, World: world, MeshAddr: mesh, Accept: accept, Rejoin: true, Step: -1}, "no training state")
	reject(hello{Rank: victim, World: world, MeshAddr: mesh, Accept: []string{"1bit"}, Rejoin: true, Step: -1}, "session policy")

	// An older build's hello is answered at its own version.
	old := dial()
	var msg wire.Encoder
	msg.MagicVersion(rendezvousMagic, 3)
	msg.U32(victim)
	msg.U32(world)
	msg.String("mesh address", 2, maxAddrLen, mesh)
	msg.U16(0)
	if _, err := old.Write(msg.Buf); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, 6)
	if _, err := io.ReadFull(old, hdr); err != nil || hdr[4] != 3 || hdr[5] != 1 {
		t.Fatalf("v3 hello: header %v, %v; want a v3 reject", hdr, err)
	}

	// A replacement that claims the slot and then goes silent...
	stale := dial()
	if err := writeHello(stale, hello{Rank: victim, World: world, MeshAddr: mesh, Accept: accept, Rejoin: true, Step: -1}); err != nil {
		t.Fatal(err)
	}
	// ...is superseded by a real one. It dials through a relay so the
	// test knows its claim reached the barrier before rank 1's does:
	// rank 1's claim completes the membership.
	relay, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	type replaced struct {
		sess *Session
		snap *elastic.Snapshot
		err  error
	}
	replacement := make(chan replaced, 1)
	go func() {
		rcfg := cfg
		rcfg.Addr, rcfg.Rank = relay.Addr().String(), victim
		sess, snap, err := Rejoin(rcfg)
		replacement <- replaced{sess, snap, err}
	}()
	in, err := relay.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	claim, err := readHello(in)
	if err != nil {
		t.Fatal(err)
	}
	out := dial()
	if err := writeHello(out, claim); err != nil {
		t.Fatal(err)
	}
	go func() {
		io.Copy(in, out)
		in.Close()
	}()
	// The barrier reads hellos in arrival order: once a later stray is
	// answered, both claims on slot 2 have been read.
	reject(hello{Rank: 1, World: world, MeshAddr: mesh, Accept: accept}, "fresh hello")

	rejoin(1, elastic.LocalState{Step: step})
	for rank, ch := range survivors {
		res := <-ch
		if res.err != nil {
			t.Fatalf("rank %d: rejoin failed: %v", rank, res.err)
		}
		if res.out.Generation != 1 || res.out.ResumeStep != step || res.out.Installed != nil {
			t.Fatalf("rank %d: generation %d, resume %d, installed %v; want 1, %d, nil",
				rank, res.out.Generation, res.out.ResumeStep, res.out.Installed, step)
		}
	}
	rep := <-replacement
	if rep.err != nil {
		t.Fatalf("replacement: %v", rep.err)
	}
	defer rep.sess.Close()
	if rep.sess.Generation() != 1 || !reflect.DeepEqual(rep.snap, snap) {
		t.Fatalf("replacement: generation %d, snapshot %+v; want 1 and the donor's", rep.sess.Generation(), rep.snap)
	}
	// The rebuilt mesh carries traffic to the replacement.
	if err := sessions[0].Fabric().Send(0, victim, nil, []byte{42}); err != nil {
		t.Fatal(err)
	}
	if got, err := rep.sess.Fabric().Recv(0, victim); err != nil || len(got) != 1 || got[0] != 42 {
		t.Fatalf("rebuilt link 0->2: %v, %v", got, err)
	}
}

// TestRendezvousRejectsRejoinHello: the fresh rendezvous is the other
// side of the barrier's leniency — a rejoin hello there is a rank
// launched with -rejoin against a session that lost no one, and fails
// the rendezvous with a reject saying so.
func TestRendezvousRejectsRejoinHello(t *testing.T) {
	coord, err := NewCoordinator(Config{Addr: "127.0.0.1:0", World: 2, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	joinErr := make(chan error, 1)
	go func() {
		s, err := coord.Join()
		if s != nil {
			s.Close()
		}
		joinErr <- err
	}()
	conn, err := net.Dial("tcp", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := writeHello(conn, hello{Rank: 1, World: 2, MeshAddr: "127.0.0.1:9", Rejoin: true, Step: -1}); err != nil {
		t.Fatal(err)
	}
	const want = "launch without -rejoin"
	if _, err := readWelcome(conn); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("rejoin hello read %v, want a reject naming %q", err, want)
	}
	select {
	case err := <-joinErr:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("coordinator returned %v, want a failure naming %q", err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator hung on a rejoin hello")
	}
}

// TestDialCoordinatorPastDeadline: a deadline that has already passed
// fails the dial with os.ErrDeadlineExceeded rather than wrapping the
// nil error of an attempt never made.
func TestDialCoordinatorPastDeadline(t *testing.T) {
	conn, err := dialCoordinator("127.0.0.1:1", time.Now().Add(-time.Second))
	if conn != nil {
		conn.Close()
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want os.ErrDeadlineExceeded", err)
	}
	if strings.Contains(err.Error(), "%!") {
		t.Fatalf("malformed error text: %v", err)
	}
}

// joinElastic forms an elastic world of cfg.World in-process ranks over
// loopback, rank 0 governing with the given rejoin window, and closes
// the sessions when the test ends. It also returns the rendezvous
// address.
func joinElastic(t *testing.T, cfg Config, window time.Duration) ([]*Session, string) {
	t.Helper()
	coordCfg := cfg
	coordCfg.Addr = "127.0.0.1:0"
	coordCfg.Elastic = elastic.Config{Enable: true, RejoinWindow: window}
	coord, err := NewCoordinator(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, cfg.World)
	errs := make([]error, cfg.World)
	var wg sync.WaitGroup
	for rank := 1; rank < cfg.World; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			wcfg := cfg
			wcfg.Addr, wcfg.Rank = coord.Addr(), rank
			sessions[rank], errs[rank] = Join(wcfg)
		}(rank)
	}
	sessions[0], errs[0] = coord.Join()
	wg.Wait()
	t.Cleanup(func() {
		for _, s := range sessions {
			if s != nil {
				s.Close()
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	return sessions, coord.Addr()
}
