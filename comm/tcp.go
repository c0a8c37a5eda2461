package comm

import (
	"fmt"
	"net"
	"time"
)

// TCPFabric connects K peers through real loopback TCP sockets: one
// duplex connection per unordered rank pair, each direction carrying
// length-prefixed frames. It is the closest stdlib-only analogue of the
// MPI transport the paper's CNTK uses: bytes cross a real kernel
// boundary (socket buffers, copies, framing) instead of being handed
// over via channels.
//
// The fabric is K RemoteFabrics — the single-rank mesh view the cluster
// rendezvous builds across OS processes — so "dial yourself on
// loopback" is the one-process special case of the deployable mesh:
// each rank owns its connection ends, writer goroutines and byte
// counters, and TCPFabric routes each call to the rank it belongs to.
type TCPFabric struct {
	k     int
	ranks []*RemoteFabric
}

// NewTCPFabric builds a fully connected loopback mesh between k peers.
func NewTCPFabric(k int) (*TCPFabric, error) {
	if k <= 0 {
		return nil, fmt.Errorf("comm: tcp fabric needs at least one peer, got %d", k)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("comm: tcp fabric listen: %w", err)
	}
	defer ln.Close()
	// conns[r][p] is rank r's end of the duplex link to rank p.
	conns := make([][]net.Conn, k)
	for r := range conns {
		conns[r] = make([]net.Conn, k)
	}
	fail := func(err error) (*TCPFabric, error) {
		for _, row := range conns {
			for _, c := range row {
				if c != nil {
					c.Close()
				}
			}
		}
		return nil, err
	}
	// One pair at a time: a loopback dial completes against the listen
	// backlog, so the Accept that follows returns that very connection —
	// the address check catches a stranger that raced it to the port.
	for lo := 0; lo < k; lo++ {
		for hi := lo + 1; hi < k; hi++ {
			dialled, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return fail(fmt.Errorf("comm: tcp fabric dial: %w", err))
			}
			conns[hi][lo] = dialled
			accepted, err := ln.Accept()
			if err != nil {
				return fail(fmt.Errorf("comm: tcp fabric accept: %w", err))
			}
			conns[lo][hi] = accepted
			if got, want := accepted.RemoteAddr().String(), dialled.LocalAddr().String(); got != want {
				return fail(fmt.Errorf("comm: tcp fabric accepted a connection from %s, dialled from %s", got, want))
			}
		}
	}
	f := &TCPFabric{k: k, ranks: make([]*RemoteFabric, k)}
	for r := range f.ranks {
		if f.ranks[r], err = NewRemoteFabric(r, k, conns[r]); err != nil {
			f.ranks = f.ranks[:r]
			f.Close() // stops the writers of the ranks already built
			return fail(err)
		}
	}
	return f, nil
}

// K implements Transport.
func (f *TCPFabric) K() int { return f.k }

// Framed implements Transport: socket payloads leave the process, so
// every message carries the self-describing quant frame header.
func (f *TCPFabric) Framed() bool { return true }

// Rank exposes one rank's single-rank view of the mesh — what a worker
// process would hold after a cluster rendezvous.
func (f *TCPFabric) Rank(r int) *RemoteFabric {
	if r < 0 || r >= f.k {
		panic(fmt.Sprintf("comm: rank %d outside world of %d", r, f.k))
	}
	return f.ranks[r]
}

// Send implements Transport by routing to the sending rank's mesh view
// (an out-of-range rank panics on the index, as the contract says).
func (f *TCPFabric) Send(from, to int, header, payload []byte) error {
	return f.ranks[from].Send(from, to, header, payload)
}

// Flush implements Transport by routing to the flushing rank's mesh
// view.
func (f *TCPFabric) Flush(rank int) error {
	return f.ranks[rank].Flush(rank)
}

// RecvInto implements Transport by routing to the receiving rank's mesh
// view.
func (f *TCPFabric) RecvInto(from, to int, header, payload []byte) error {
	return f.ranks[to].RecvInto(from, to, header, payload)
}

// TotalBytes implements Transport: the sum over every rank's sends.
func (f *TCPFabric) TotalBytes() int64 {
	var total int64
	for _, r := range f.ranks {
		total += r.TotalBytes()
	}
	return total
}

// PeerTraffic implements PeerAccounter: the process-level view of the
// link to peer p, summed over every local rank's mesh view.
func (f *TCPFabric) PeerTraffic(p int) PeerTraffic {
	var total PeerTraffic
	for _, r := range f.ranks {
		pt := r.PeerTraffic(p)
		total.TxBytes += pt.TxBytes
		total.RxBytes += pt.RxBytes
		total.TxFrames += pt.TxFrames
		total.RxFrames += pt.RxFrames
	}
	return total
}

// TotalMessages implements Transport.
func (f *TCPFabric) TotalMessages() int64 {
	var total int64
	for _, r := range f.ranks {
		total += r.TotalMessages()
	}
	return total
}

// Close shuts down every rank's connections: all ranks are marked
// closed before any socket is torn down, so Send/Recv calls blocked on
// any rank — whose link's far end is a sibling rank in this same
// fabric — observe ErrClosed rather than a spurious transport error.
// Queued messages are flushed within each rank's drain bound.
func (f *TCPFabric) Close() error {
	won := make([]bool, len(f.ranks))
	for i, r := range f.ranks {
		won[i] = r.beginClose()
	}
	// One shared drain bound across all ranks: the sequential teardowns
	// race the same absolute deadline, so an error-path shutdown with
	// wedged links costs at most one drain timeout, not K of them.
	deadline := time.Now().Add(drainTimeout)
	var first error
	for i, r := range f.ranks {
		if !won[i] {
			continue
		}
		if err := r.teardown(deadline); err != nil && first == nil {
			first = err
		}
	}
	return first
}
