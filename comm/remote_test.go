package comm

import (
	"errors"
	"net"
	"sync"
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

// twoRankFabrics builds the two single-rank views of a 2-peer mesh.
func twoRankFabrics(t *testing.T) (*RemoteFabric, *RemoteFabric) {
	t.Helper()
	a, b := pairConns(t)
	f0, err := NewRemoteFabric(0, 2, []net.Conn{nil, a})
	if err != nil {
		t.Fatal(err)
	}
	f1, err := NewRemoteFabric(1, 2, []net.Conn{b, nil})
	if err != nil {
		f0.Close()
		t.Fatal(err)
	}
	return f0, f1
}

func TestRemoteFabricRoundTrip(t *testing.T) {
	f0, f1 := twoRankFabrics(t)
	defer f0.Close()
	defer f1.Close()
	mustSend(t, f0, 0, 1, []byte{7, 8})
	mustSend(t, f1, 1, 0, []byte{9})
	if got := mustRecv(t, f1, 0, 1, 2); got[0] != 7 || got[1] != 8 {
		t.Fatalf("rank 1 received %v", got)
	}
	if got := mustRecv(t, f0, 1, 0, 1); got[0] != 9 {
		t.Fatalf("rank 0 received %v", got)
	}
	if f0.TotalBytes() != 2 || f1.TotalBytes() != 1 {
		t.Fatalf("byte counters wrong: %d, %d", f0.TotalBytes(), f1.TotalBytes())
	}
	if !f0.Framed() || f0.K() != 2 || f0.Local() != 0 || f1.Local() != 1 {
		t.Fatal("fabric identity wrong")
	}
}

func TestRemoteFabricRejectsForeignRank(t *testing.T) {
	f0, f1 := twoRankFabrics(t)
	defer f0.Close()
	defer f1.Close()
	if err := f0.Send(1, 0, nil, []byte{1}); err == nil {
		t.Fatal("rank 0 must not send as rank 1")
	}
	if err := f0.RecvInto(0, 1, make([]byte, 1)); err == nil {
		t.Fatal("rank 0 must not receive as rank 1")
	}
}

func TestRemoteFabricValidatesConns(t *testing.T) {
	if _, err := NewRemoteFabric(0, 2, []net.Conn{nil, nil}); err == nil {
		t.Fatal("missing peer connection must be rejected")
	}
	if _, err := NewRemoteFabric(2, 2, nil); err == nil {
		t.Fatal("out-of-range local rank must be rejected")
	}
	if _, err := NewRemoteFabric(0, 0, nil); err == nil {
		t.Fatal("empty world must be rejected")
	}
}

// TestClosedFabricReturnsErrClosed: the orderly-shutdown satellite —
// Send and Recv on a closed fabric are clean errors, not panics.
func TestClosedFabricReturnsErrClosed(t *testing.T) {
	f0, f1 := twoRankFabrics(t)
	defer f1.Close()
	if err := f0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f0.Send(0, 1, nil, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	if err := f0.RecvInto(1, 0, make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v, want ErrClosed", err)
	}
	if f0.Close() != nil {
		t.Fatal("Close must be idempotent")
	}
}

// TestCloseUnblocksPendingRecv: a Recv blocked on a quiet link returns
// ErrClosed when the fabric shuts down underneath it.
func TestCloseUnblocksPendingRecv(t *testing.T) {
	f0, f1 := twoRankFabrics(t)
	defer f1.Close()
	errCh := make(chan error, 1)
	var started sync.WaitGroup
	started.Add(1)
	go func() {
		started.Done()
		errCh <- f0.RecvInto(1, 0, make([]byte, 1))
	}()
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let Recv block on the socket
	f0.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked recv got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// TestPeerDisappearingIsAnError: if the remote end vanishes mid-run
// (not an orderly local Close), Recv reports a transport error rather
// than ErrClosed or a panic.
func TestPeerDisappearingIsAnError(t *testing.T) {
	f0, f1 := twoRankFabrics(t)
	defer f0.Close()
	f1.Close()
	err := f0.RecvInto(1, 0, make([]byte, 1))
	if err == nil {
		t.Fatal("expected an error after the peer closed")
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("peer loss misreported as local close: %v", err)
	}
}

// TestCloseDoesNotDeadlockOnStalledPeer: a peer that stops reading
// (frozen process, zero TCP window) leaves the writer blocked in
// conn.Write and a sender blocked on the full link queue; Close must
// still return within the drain bound instead of deadlocking on the
// queue lock.
func TestCloseDoesNotDeadlockOnStalledPeer(t *testing.T) {
	oldDrain := drainTimeout
	drainTimeout = 300 * time.Millisecond
	defer func() { drainTimeout = oldDrain }()

	f0, f1 := twoRankFabrics(t)
	defer f1.Close() // f1 never reads: the stalled peer

	// Flood the link until the socket buffers, the queue and finally
	// Send itself are all blocked.
	sendDone := make(chan error, 1)
	go func() {
		payload := make([]byte, 1<<20)
		for {
			if err := f0.Send(0, 1, nil, payload); err != nil {
				sendDone <- err
				return
			}
		}
	}()
	time.Sleep(200 * time.Millisecond) // let everything wedge

	closed := make(chan error, 1)
	go func() { closed <- f0.Close() }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked on a stalled peer")
	}
	select {
	case err := <-sendDone:
		if err == nil {
			t.Fatal("the blocked Send must fail once the fabric closes")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the blocked Send never returned")
	}
}

func TestTCPFabricClosedErrClosed(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(0, 1, nil, []byte{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
	if err := f.RecvInto(0, 1, make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v, want ErrClosed", err)
	}
}

// TestTCPFabricCloseUnblocksRecvAsErrClosed: Close marks every rank
// closed before tearing any socket down, so a Recv blocked on rank 1
// sees ErrClosed — not the EOF of rank 0's end disappearing first.
func TestTCPFabricCloseUnblocksRecvAsErrClosed(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- f.RecvInto(0, 1, make([]byte, 1))
	}()
	time.Sleep(10 * time.Millisecond) // let Recv block on the socket
	f.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked recv got %v, want ErrClosed", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// TestTCPFabricRankViews: the per-rank RemoteFabric views expose the
// same mesh, and their counters sum to the fabric totals.
func TestTCPFabricRankViews(t *testing.T) {
	f, err := NewTCPFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r0, r2 := f.Rank(0), f.Rank(2)
	mustSend(t, r0, 0, 2, []byte{1, 2, 3})
	if got := mustRecv(t, r2, 0, 2, 3); got[2] != 3 {
		t.Fatalf("rank view received %v", got)
	}
	if f.TotalBytes() != 3 || r0.TotalBytes() != 3 || r2.TotalBytes() != 0 {
		t.Fatalf("counters wrong: fabric %d, r0 %d, r2 %d",
			f.TotalBytes(), r0.TotalBytes(), r2.TotalBytes())
	}
}
