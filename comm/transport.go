package comm

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// ErrClosed is returned by Send and RecvInto once a fabric has been
// closed. Orderly shutdown races — a peer tearing its sockets down
// while the last messages of an exchange are still in flight — surface
// as this error instead of a panic, so callers can distinguish "the run
// is over" from a genuine transport fault.
var ErrClosed = errors.New("comm: fabric closed")

// SizeError reports a message whose length is not the one its receiver
// posted a buffer for. A socket link is desynchronised from that point,
// so it fails every later receive with the same error rather than parse
// payload bytes as the next length prefix.
type SizeError struct {
	From            int   // sending rank
	Announced, Want int64 // message length on the wire, length of the posted buffer
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("comm: rank %d announces a %d-byte message, receiver wants %d", e.From, e.Announced, e.Want)
}

// Transport is the byte-moving substrate beneath the aggregation
// primitives: K peers connected by reliable, ordered, directed links.
// Three implementations ship with the repository — the in-process
// Fabric (channels, standing in for PCIe/NVLink peer-to-peer copies),
// TCPFabric (a loopback socket mesh inside one process, standing in
// for the host-mediated MPI path) and RemoteFabric (one rank of a
// multi-process mesh built from pre-established connections by the
// cluster rendezvous). Reducers are written against this interface so
// the same aggregation code runs over any of them.
//
// The caller owns every slice it passes in, before and after the call
// (see "Buffer ownership" in the package documentation): Send copies
// into a buffer the link recycles, RecvInto fills the caller's memory.
//
// Addressing a peer outside [0, K) or a self-link panics — that is a
// caller bug. Lifecycle and socket failures return errors: ErrClosed
// after Close, a wrapped transport error otherwise.
type Transport interface {
	// K returns the number of peers.
	K() int
	// Send transmits one message, header followed by payload (either
	// may be empty), from peer `from` to peer `to`. Both are copied
	// before Send returns, so the caller may overwrite them — or the
	// tensor a "32bit" payload is a view of — immediately. Send blocks
	// only while the link's queue is full, and a link queues at least
	// linkBuffer (32) messages: a Collective's exchange is deadlock-free
	// only on that condition (see "Order of messages"). Sending on a
	// closed fabric returns ErrClosed.
	Send(from, to int, header, payload []byte) error
	// RecvInto blocks until the next message on the (from, to) link and
	// reads it into dst, which must have exactly the message's length: a
	// message of any other size is a *SizeError and is not delivered.
	// Receiving on a closed fabric — or having the fabric closed under a
	// blocked RecvInto — returns ErrClosed.
	RecvInto(from, to int, dst []byte) error
	// TotalBytes returns cumulative bytes sent across all links this
	// transport instance observes (for a RemoteFabric, the local rank's
	// sends only).
	TotalBytes() int64
	// TotalMessages returns cumulative messages sent across all links.
	TotalMessages() int64
	// Framed reports whether payloads on this transport cross a process
	// (or machine) boundary and must therefore be self-describing: when
	// true, reducers send every payload behind its quant frame header
	// (codec identity, shape, element count) so the receiving peer can
	// decode with no out-of-band codec agreement. In-process transports
	// return false and carry bare payloads.
	Framed() bool
}

// Compile-time checks that all fabrics satisfy Transport.
var (
	_ Transport = (*Fabric)(nil)
	_ Transport = (*TCPFabric)(nil)
	_ Transport = (*RemoteFabric)(nil)
)

// maxRetainedSlabs bounds the send buffers of one size class that one
// directed link keeps for reuse: as many as the link can hold out at
// once — a full queue, the slab a sender blocked on it holds, and the
// one its consumer (the receiver copying out, or the socket writer)
// holds. A round-major exchange can fill a link's queue with messages
// of one size, and a shorter list would drop, and reallocate, slabs on
// every exchange.
const maxRetainedSlabs = linkBuffer + 2

// slabPool is one directed link's free lists of send buffers ("slabs").
// A slab is taken by Send, travels with the message, and is returned by
// whoever consumes it — the socket writer once flushed, the in-process
// receiver once copied out. The bound is on what is retained, not on
// what is in flight: taking from an empty list allocates.
//
// Message sizes on one link cycle through the tensor inventory (a 4 KB
// bias follows a 1 MB matrix every step), so the pool keeps one free
// list per size class (slabClass): a message takes a slab of its own
// class, never a larger one. A list allocates only while the link has
// more of its class out at once than ever before, so within a few
// exchanges every list stops allocating, and what a link retains is
// what it once had in flight, each slab at most 1/8 over its message —
// not a window of messages each the size of the link's largest.
type slabPool struct {
	mu      sync.Mutex
	classes []slabList // one per size class met so far
}

// slabList is a slabPool's free list of one size class.
type slabList struct {
	size int // slab length of the class
	free [][]byte
}

// slabClass returns the size class of an n-byte message: n itself up
// to 16 bytes, above that n rounded up to the next of eight equal steps
// between two powers of two (a 1 MiB + 24-byte message takes a
// 1.125 MiB slab).
func slabClass(n int) int {
	if n <= 16 {
		return n
	}
	step := 1 << (bits.Len(uint(n-1)) - 4)
	return (n + step - 1) &^ (step - 1)
}

// list returns the free list of size class size, adding it if the link
// has not met the class before. The caller holds p.mu.
func (p *slabPool) list(size int) *slabList {
	for i := range p.classes {
		if p.classes[i].size == size {
			return &p.classes[i]
		}
	}
	p.classes = append(p.classes, slabList{size: size, free: make([][]byte, 0, maxRetainedSlabs)})
	return &p.classes[len(p.classes)-1]
}

// get returns a slab of length n.
func (p *slabPool) get(n int) []byte {
	size := slabClass(n)
	p.mu.Lock()
	l := p.list(size)
	var b []byte
	if last := len(l.free) - 1; last >= 0 {
		b, l.free[last], l.free = l.free[last], nil, l.free[:last]
	}
	p.mu.Unlock()
	if b == nil {
		b = make([]byte, size)
	}
	return b[:n]
}

// put returns a slab from get to its list. The caller must not touch it
// again.
func (p *slabPool) put(b []byte) {
	p.mu.Lock()
	if l := p.list(cap(b)); len(l.free) < maxRetainedSlabs {
		l.free = append(l.free, b)
	}
	p.mu.Unlock()
}
