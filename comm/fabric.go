// Package comm is the communication substrate of the reproduction:
// three Transport fabrics — in-process channels standing in for the
// PCIe/NVLink interconnect, a loopback TCP mesh (TCPFabric), and the
// single-rank RemoteFabric view of a multi-process mesh built by the
// cluster rendezvous — plus Collective, the one engine behind both
// aggregation primitives the paper compares. A primitive is a schedule
// generator: each rank's schedule for a tensor is an ordered list of
// encode-and-send, receive-and-accumulate and receive-and-place steps
// over group-aligned chunks, which one executor runs with the tensor's
// codec on every send.
//
// # What a quantised sum means
//
// MPI runs the direct schedule, reduce-and-broadcast (§2.4.1): each
// contribution is quantised once on its way to the stripe's owner,
// which sums the decoded contributions in rank order (its own decoded
// from its own encoding) and quantises the sum once for the broadcast.
//
// NCCL runs the ring (§2.4.2) with the codec the paper could only
// simulate (§4.4). Each of the K−1 reduce-scatter hops re-quantises the
// partial sum it forwards, with that hop's own encoder, and the
// receiver adds the decoded partial to its raw contribution; the
// chunk's owner quantises the finished chunk once and adopts the
// decoded value; the all-gather hops relay those bytes verbatim. A
// chunk's first contribution thus passes through K quantisations
// against the direct schedule's two, so error compounds with K
// (TestRingErrorCompounds). Under 32bit every encode is exact and this
// is the full-precision ring allreduce, byte for byte. Every replica
// decodes the same bytes for every chunk, so replicas stay
// bit-identical.
//
// # Order of messages
//
// A trainer exchanges all of a step's tensors in one ReduceAll call, and
// the executor interleaves them: each schedule step carries a round, a
// rank runs its steps of all the tensors round by round — in tensor
// order within a round, each tensor's own steps in their order — and
// so sends every tensor's messages of a round before it waits on any.
// The direct schedule has three rounds: every contribution; then, per
// tensor, the owner's receive-adds and the broadcast of the sum; then
// the placing of the broadcasts. The ring has two per reduce-scatter
// hop (the sends, then the receive-adds), one for the owners' sends and
// one per all-gather hop. The latency a step pays is then per round,
// not per tensor and round.
//
// Per link the order is the same at both ends. Every message sent in
// round ρ is received in round ρ+1, and a link carries at most one
// message of a tensor in a round (TestScheduleRounds), so the sender's
// order, by (round, tensor), is the receiver's order, by (round − 1,
// tensor). No codec state, encoder stream or byte is shared between
// tensors, so a tensor's values, bytes and messages are those of a
// Reduce of it alone (TestReduceAllMatchesReduce). Reduce is the same
// executor on one tensor, whose steps are already in round order.
//
// Links are bounded queues (linkBuffer messages), so the executor takes
// the tensors in windows of linkBuffer/2 and runs each window's rounds
// before the next window's (a window's last round only receives). That
// keeps every exchange deadlock-free. Suppose some rank never finishes
// round ρ, the earliest such round. Every rank finishes round ρ−1, so
// every receive of round ρ finds its message. A link's receiver, having
// finished round ρ−1, has taken all the link's messages of earlier
// rounds, and its stuck sender has sent none of later ones, so the link
// holds at most the window's messages of rounds ρ−1 and ρ: two per
// tensor, linkBuffer in all. So no send of round ρ waits forever
// either, and no such round exists.
//
// Every byte that crosses a link is counted, so tests can check it
// against WireBytes, the volume the performance model prices — on a
// framed transport (one whose payloads leave the process, e.g.
// TCPFabric) including one self-describing quant frame header per
// message.
//
// # Buffer ownership
//
// The data path allocates nothing in steady state and copies a message
// once in user space. Every directed link owns a small free list of
// send buffers (slabPool): Send assembles length prefix, frame header
// and payload in one and hands it on — to the link's writer goroutine,
// which issues one Write and returns it, or through the in-process
// channel to the receiver, which returns it after copying out. An empty
// list allocates rather than blocks (the pool must never be able to
// deadlock an exchange); a link keeps one list per size class of
// message, each of at most maxRetainedSlabs buffers. Receives land in
// memory the caller owns (Transport.RecvInto): a Collective knows the
// size of every message it expects and keeps one receive buffer per
// rank, and a message of any other size is an error before a byte of
// it is read. Slices passed to Send and RecvInto stay the caller's.
// A receive-and-accumulate step (recvAdd) decodes straight into the
// rank's copy of the chunk: the codec's DecodeAdd — behind
// quant.FrameDecoder.DecodeAdd on a framed transport — adds each
// decoded value in place, with the bits a decode into scratch followed
// by tensor.Add would give, so no decoded contribution is staged.
package comm

import (
	"fmt"
	"sync/atomic"
)

// Fabric is a reliable, ordered, in-process interconnect between K peers.
// Each directed link is an independent FIFO of link-owned buffers: Send
// copies the message into one, RecvInto copies it out and recycles it.
type Fabric struct {
	k     int
	links []chan []byte // links[from*k+to]
	slabs []slabPool
	bytes []atomic.Int64
	sends []atomic.Int64
}

// linkBuffer is the per-link queue capacity of every fabric (the
// channel here, RemoteFabric's writer queue). A Collective interleaves
// at most window = linkBuffer/2 tensors so that no exchange can fill a
// link (see "Order of messages").
const linkBuffer = 32

// NewFabric connects k peers. It panics if k is not positive.
func NewFabric(k int) *Fabric {
	if k <= 0 {
		panic(fmt.Sprintf("comm: fabric needs at least one peer, got %d", k))
	}
	f := &Fabric{
		k:     k,
		links: make([]chan []byte, k*k),
		slabs: make([]slabPool, k*k),
		bytes: make([]atomic.Int64, k*k),
		sends: make([]atomic.Int64, k*k),
	}
	for i := range f.links {
		f.links[i] = make(chan []byte, linkBuffer)
	}
	return f
}

// K returns the number of peers.
func (f *Fabric) K() int { return f.k }

// Framed implements Transport: channel payloads stay in-process, so
// they travel bare.
func (f *Fabric) Framed() bool { return false }

func (f *Fabric) link(from, to int) int {
	if from < 0 || from >= f.k || to < 0 || to >= f.k {
		panic(fmt.Sprintf("comm: peer out of range (%d->%d of %d)", from, to, f.k))
	}
	if from == to {
		panic("comm: self-send")
	}
	return from*f.k + to
}

// Send implements Transport. It blocks only when the link buffer is
// full. The in-process fabric has no failure modes, so the error is
// always nil.
func (f *Fabric) Send(from, to int, header, payload []byte) error {
	l := f.link(from, to)
	msg := f.slabs[l].get(len(header) + len(payload))
	copy(msg[copy(msg, header):], payload)
	f.bytes[l].Add(int64(len(msg)))
	f.sends[l].Add(1)
	f.links[l] <- msg
	return nil
}

// RecvInto implements Transport: messages arrive in FIFO order. A
// message that does not fit dst exactly is consumed and reported as a
// *SizeError.
func (f *Fabric) RecvInto(from, to int, dst []byte) error {
	l := f.link(from, to)
	msg := <-f.links[l]
	var err error
	if len(msg) == len(dst) {
		copy(dst, msg)
	} else {
		err = &SizeError{From: from, Announced: int64(len(msg)), Want: int64(len(dst))}
	}
	f.slabs[l].put(msg)
	return err
}

// BytesOnLink returns the cumulative bytes sent from -> to.
func (f *Fabric) BytesOnLink(from, to int) int64 {
	return f.bytes[f.link(from, to)].Load()
}

// TotalBytes returns the cumulative bytes across all links.
func (f *Fabric) TotalBytes() int64 {
	var total int64
	for i := range f.bytes {
		total += f.bytes[i].Load()
	}
	return total
}

// TotalMessages returns the cumulative message count across all links.
func (f *Fabric) TotalMessages() int64 {
	var total int64
	for i := range f.sends {
		total += f.sends[i].Load()
	}
	return total
}

// ResetCounters zeroes the byte and message counters (links keep any
// in-flight messages).
func (f *Fabric) ResetCounters() {
	for i := range f.bytes {
		f.bytes[i].Store(0)
		f.sends[i].Store(0)
	}
}

// Reducer synchronously aggregates equal-length gradient vectors across
// the K peers of a fabric: after all peers return from Reduce for the
// same tensor, every peer's g holds the (possibly re-quantised) sum of
// all peers' inputs. Reduce must be called by all K peers, each from its
// own goroutine, with tensors presented in the same order everywhere.
// Collective is the implementation.
type Reducer interface {
	// Name identifies the primitive ("mpi-rb" or "nccl-ring").
	Name() string
	// Reduce aggregates tensor tensorID in place for the given rank.
	Reduce(rank, tensorID int, g []float32) error
}
