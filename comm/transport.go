package comm

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// ErrClosed is returned by Send, Flush and RecvInto once a fabric has
// been closed. Orderly shutdown races — a peer tearing its sockets down
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
// A send borrows the caller's slices until Flush; a receive fills the
// caller's memory (see "Buffer ownership" in the package
// documentation).
//
// Addressing a peer outside [0, K) or a self-link panics — that is a
// caller bug. Lifecycle and socket failures return errors: ErrClosed
// after Close, a wrapped transport error otherwise.
type Transport interface {
	// K returns the number of peers.
	K() int
	// Send queues one message, header followed by payload (either may
	// be empty), from peer `from` to peer `to`. It borrows both: the
	// caller must not write them — nor the tensor a "32bit" payload is a
	// view of — until Flush(from) has returned. Send blocks only while
	// the link's queue is full, and a link queues at least linkBuffer
	// (32) messages: a Collective's exchange is deadlock-free only on
	// that condition (see "Order of messages"). Sending on a closed
	// fabric returns ErrClosed.
	Send(from, to int, header, payload []byte) error
	// Flush blocks until every message rank has sent is off its link —
	// on the socket, or copied out by its receiver — and so hands back
	// every slice rank's sends borrowed. It reports what the next Send
	// would: ErrClosed or the abort verdict once the fabric was closed
	// or aborted (under a blocked Flush too; the teardown counts the
	// messages it discards as off the link), else a failed socket write.
	Flush(rank int) error
	// RecvInto blocks until the next message on the (from, to) link and
	// reads its first len(header) bytes into header and the rest into
	// payload. The message must be exactly len(header)+len(payload)
	// bytes long: one of any other size is a *SizeError and is not
	// delivered. Receiving on a closed fabric — or having the fabric
	// closed under a blocked RecvInto — returns ErrClosed.
	RecvInto(from, to int, header, payload []byte) error
	// TotalBytes returns cumulative bytes sent across all links this
	// transport instance observes (for a RemoteFabric, the local rank's
	// sends only).
	TotalBytes() int64
	// TotalMessages returns cumulative messages sent across all links.
	TotalMessages() int64
	// Framed reports whether payloads on this transport cross a process
	// (or machine) boundary: when true, reducers send every payload
	// behind its quant frame header (codec identity, shape, element
	// count), and every receiver checks that header against the one its
	// own configuration predicts, so peers that were configured apart
	// fail instead of misreading each other. In-process transports
	// return false and carry bare payloads.
	Framed() bool
}

// Compile-time checks that all fabrics satisfy Transport.
var (
	_ Transport = (*Fabric)(nil)
	_ Transport = (*TCPFabric)(nil)
	_ Transport = (*RemoteFabric)(nil)
)

// message is a send's borrowed header and payload on their way through
// a link's queue.
type message struct{ header, payload []byte }

// outbox counts one sending rank's messages — sent, and taken off
// their links by the consumer (the socket writer, or the in-process
// receiver once it has copied the message out) — so that Flush can
// wait for the two to meet.
type outbox struct {
	sent, taken atomic.Int64
	wake        chan struct{} // a token after a take, for a waiting Flush
}

func newOutbox() outbox { return outbox{wake: make(chan struct{}, 1)} }

// take records that a consumer is done with one message.
func (o *outbox) take() {
	o.taken.Add(1)
	select {
	case o.wake <- struct{}{}:
	default:
	}
}

// wait blocks until as many messages are taken as were sent.
func (o *outbox) wait() {
	for o.taken.Load() < o.sent.Load() {
		<-o.wake
	}
}
