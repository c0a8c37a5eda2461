package comm

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// RemoteFabric is the single-rank view of a K-peer TCP mesh: one OS
// process holds the local end of a duplex connection to every other
// rank and moves length-prefixed frames over them. The connections are
// established out of band — by the cluster rendezvous for multi-process
// training, or by NewTCPFabric's loopback mesh for in-process tests —
// so the fabric itself is transport policy only: per-peer writer
// goroutines, FIFO framing, byte accounting and a clean ErrClosed
// shutdown path.
//
// Send may only be called with from == Local and RecvInto/Recv with
// to == Local: a process can speak for its own rank alone. The
// aggregation primitives already observe this discipline (each rank
// sends as itself and receives as itself), which is what lets the same
// reducer code run unmodified over a fully local fabric or one rank of
// a machine-spanning mesh.
//
// Frame format per message: uint32 little-endian payload length, then
// the payload bytes — identical in both directions of every link, and
// written as one call, so a failure cannot strand a prefix without its
// body: on net's own conns one writev from the sender's borrowed header
// and payload, on any other one Write of a link-owned copy.
type RemoteFabric struct {
	k     int
	local int
	// links[p] is the duplex link to peer p (zero at p == local).
	links []remoteLink
	// qmu serialises enqueueing on the links' queues against Close
	// closing them.
	qmu sync.RWMutex
	// unblock is closed by the first asynchronous write failure and at
	// the start of every teardown, so senders blocked on the full queue
	// of a stalled or dead link get out (and release qmu) instead of
	// wedging Close.
	unblock     chan struct{}
	unblockOnce sync.Once
	writers     sync.WaitGroup
	out         outbox // the local rank's sends, for Flush
	closed      atomic.Bool
	// werr records the first asynchronous socket write failure; Send
	// reports it on the next call.
	werr atomic.Pointer[error]
	// aerr is the abort verdict (set by Abort before the fabric is
	// marked closed): once present, every Send and Recv — blocked or
	// future — returns it instead of ErrClosed, so a health-plane death
	// verdict survives the teardown it triggers.
	aerr atomic.Pointer[error]
}

// remoteLink is the local end of the link to one peer: the local rank
// writes peer-bound messages to conn and reads peer-originated ones.
type remoteLink struct {
	conn net.Conn
	// queue feeds the link's writer goroutine with borrowed messages.
	queue chan message
	// The writer's length prefix, and what a write is made of, kept
	// here so that a write allocates nothing in steady state: the parts
	// of a writev on net's own conns, a copy of the message on any other.
	wprefix [4]byte
	parts   [3][]byte
	bufs    net.Buffers
	wcopy   []byte
	// rmu serialises receivers and guards prefix and rerr.
	rmu    sync.Mutex
	prefix [4]byte
	// rerr poisons the receive side: after a read failure or a rejected
	// length prefix the stream position is unknown, and every later
	// receive reports the same error.
	rerr error
	// The link's ledger, payload bytes only — the 4-byte length prefix
	// is transport framing, not exchange traffic, and the simulator
	// prices payloads. TotalBytes/TotalMessages are sums over these, so
	// the per-peer and total views can never disagree.
	txBytes, rxBytes, txFrames, rxFrames atomic.Int64
}

// PeerTraffic is a point-in-time snapshot of one link's accounting:
// payload bytes and frame counts in each direction, as seen from the
// local rank (Tx = local sent to the peer, Rx = local received).
type PeerTraffic struct {
	TxBytes, RxBytes, TxFrames, RxFrames int64
}

// maxRemoteMessage bounds a single message (1 GiB): Send refuses a
// larger one, a larger length prefix from a peer is stream corruption.
const maxRemoteMessage = 1 << 30

// recvChunk is the most Recv allocates ahead of the bytes that have
// actually arrived, so a corrupted length prefix fails on the
// (truncated) stream instead of allocating the announced size.
const recvChunk = 1 << 20

// drainTimeout bounds how long Close flushes queued messages to peers
// before closing the sockets. Orderly shutdown must deliver the tail of
// the final exchange — a faster rank finishes an epoch and closes while
// slower peers are still reading — but a dead peer must not wedge
// Close forever. A variable so the shutdown tests can shrink it.
var drainTimeout = 10 * time.Second

// NewRemoteFabric wraps pre-established duplex connections into the
// local rank's Transport. conns must have length k with a non-nil
// connection for every peer and nil at index local. The fabric takes
// ownership of the connections and closes them on Close.
func NewRemoteFabric(local, k int, conns []net.Conn) (*RemoteFabric, error) {
	if k <= 0 {
		return nil, fmt.Errorf("comm: remote fabric needs at least one peer, got %d", k)
	}
	if local < 0 || local >= k {
		return nil, fmt.Errorf("comm: local rank %d outside world of %d", local, k)
	}
	if len(conns) != k {
		return nil, fmt.Errorf("comm: remote fabric wants %d connections, got %d", k, len(conns))
	}
	for p, c := range conns {
		if p == local && c != nil {
			return nil, fmt.Errorf("comm: rank %d must not hold a connection to itself", local)
		}
		if p != local && c == nil {
			return nil, fmt.Errorf("comm: rank %d is missing the connection to rank %d", local, p)
		}
	}
	f := &RemoteFabric{
		k:       k,
		local:   local,
		links:   make([]remoteLink, k),
		unblock: make(chan struct{}),
		out:     newOutbox(),
	}
	for p := range f.links {
		if p == local {
			continue
		}
		l := &f.links[p]
		l.conn = conns[p]
		l.queue = make(chan message, linkBuffer)
		f.writers.Add(1)
		go f.writeLoop(p, l)
	}
	return f, nil
}

// writeLoop drains one peer's queue onto its socket, one write per
// message, each taken off the outbox once written. It runs until the
// queue is closed and empty (orderly Close flushes the tail of the
// final exchange this way) or the socket fails, after which it discards
// (and takes) so queued senders, Flush and Close are never stuck behind
// a dead link.
func (f *RemoteFabric) writeLoop(peer int, l *remoteLink) {
	defer f.writers.Done()
	for m := range l.queue {
		err := l.write(m)
		f.out.take()
		if err != nil {
			f.writeFail(peer, err)
			break
		}
	}
	for range l.queue {
		f.out.take() // discard until Close closes the channel
	}
}

// write puts one message on the socket behind its length prefix in one
// call, and lets go of the borrowed slices. On net's own conns that is
// one writev (net.Buffers) from the borrowed memory itself; any other
// conn would get a Write per part from net.Buffers, so it gets one
// Write of a link-owned copy instead.
func (l *remoteLink) write(m message) (err error) {
	binary.LittleEndian.PutUint32(l.wprefix[:], uint32(len(m.header)+len(m.payload)))
	switch l.conn.(type) {
	case *net.TCPConn, *net.UnixConn:
		l.parts = [3][]byte{l.wprefix[:], m.header, m.payload}
		l.bufs = l.parts[:]
		_, err = l.bufs.WriteTo(l.conn)
		l.parts = [3][]byte{}
	default:
		l.wcopy = append(append(append(l.wcopy[:0], l.wprefix[:]...), m.header...), m.payload...)
		_, err = l.conn.Write(l.wcopy)
	}
	return err
}

// writeFail records a socket write error so the next Send reports it,
// and aborts senders blocked on this fabric's queues. Errors during
// shutdown are expected (the drain deadline fires, or the peer closed
// first) and not recorded.
func (f *RemoteFabric) writeFail(peer int, err error) {
	if !f.closed.Load() {
		e := fmt.Errorf("comm: send to rank %d: %w", peer, err)
		f.werr.CompareAndSwap(nil, &e)
	}
	f.unblockOnce.Do(func() { close(f.unblock) })
}

// K implements Transport.
func (f *RemoteFabric) K() int { return f.k }

// Local returns the rank this fabric speaks for.
func (f *RemoteFabric) Local() int { return f.local }

// Framed implements Transport: payloads leave the process, so every
// message carries the self-describing quant frame header.
func (f *RemoteFabric) Framed() bool { return true }

// checkPeer panics on addressing bugs (out-of-range ranks, self-links)
// and returns an error when the link does not terminate at the local
// rank — the one misuse a distributed caller can plausibly make.
func (f *RemoteFabric) checkPeer(local, peer int, op string) error {
	if peer < 0 || peer >= f.k || local < 0 || local >= f.k {
		panic(fmt.Sprintf("comm: peer out of range (%d, %d of %d)", local, peer, f.k))
	}
	if peer == local {
		panic("comm: self-send")
	}
	if local != f.local {
		return fmt.Errorf("comm: rank %d cannot %s as rank %d", f.local, op, local)
	}
	return nil
}

// Send implements Transport: the borrowed header and payload are
// enqueued for the peer's writer goroutine, which writes them behind
// their length prefix. from must be the local rank.
func (f *RemoteFabric) Send(from, to int, header, payload []byte) error {
	if err := f.checkPeer(from, to, "send"); err != nil {
		return err
	}
	// Lifecycle wins over a recorded writer error: after an orderly
	// Close the caller must see ErrClosed — or the abort verdict — not
	// the stale socket failure that preceded it.
	if err := f.sendErr(); err != nil {
		return err
	}
	n := len(header) + len(payload)
	if n > maxRemoteMessage {
		return fmt.Errorf("comm: %d-byte message to rank %d, cap is %d", n, to, maxRemoteMessage)
	}
	l := &f.links[to]
	// The read lock spans the enqueue so Close cannot close the channel
	// under a blocked send; unblock frees senders stuck on the full
	// queue of a link whose writer died or whose fabric is going down.
	f.qmu.RLock()
	err := f.lifecycleErr()
	if err == nil {
		select {
		case l.queue <- message{header, payload}:
			f.out.sent.Add(1)
			f.qmu.RUnlock()
			l.txBytes.Add(int64(n))
			l.txFrames.Add(1)
			return nil
		case <-f.unblock:
		}
		if err = f.sendErr(); err == nil {
			err = ErrClosed
		}
	}
	f.qmu.RUnlock()
	return err
}

// Flush implements Transport: it returns once the writers have written,
// or discarded, every message queued. rank must be the local rank.
func (f *RemoteFabric) Flush(rank int) error {
	if rank != f.local {
		return fmt.Errorf("comm: rank %d cannot flush as rank %d", f.local, rank)
	}
	f.out.wait()
	return f.sendErr()
}

// sendErr is what a Send that cannot proceed reports: the lifecycle
// error if there is one, else the first asynchronous write failure.
func (f *RemoteFabric) sendErr() error {
	if err := f.lifecycleErr(); err != nil {
		return err
	}
	if e := f.werr.Load(); e != nil {
		return *e
	}
	return nil
}

// lifecycleErr returns the error every data-path call must report once
// the fabric is no longer usable: the abort verdict if one was
// delivered, ErrClosed after an orderly Close, nil while live.
func (f *RemoteFabric) lifecycleErr() error {
	if e := f.aerr.Load(); e != nil {
		return *e
	}
	if f.closed.Load() {
		return ErrClosed
	}
	return nil
}

// RecvInto implements Transport: the length prefix is checked against
// len(header)+len(payload) before any of the message is read. to must
// be the local rank.
func (f *RemoteFabric) RecvInto(from, to int, header, payload []byte) error {
	if err := f.checkPeer(to, from, "receive"); err != nil {
		return err
	}
	l := &f.links[from]
	l.rmu.Lock()
	defer l.rmu.Unlock()
	n, err := f.readPrefix(l, from)
	if err != nil {
		return err
	}
	if want := int64(len(header) + len(payload)); n != want {
		l.rerr = &SizeError{From: from, Announced: n, Want: want}
		return l.rerr
	}
	if _, err := io.ReadFull(l.conn, header); err != nil {
		return f.recvFail(l, from, err)
	}
	if _, err := io.ReadFull(l.conn, payload); err != nil {
		return f.recvFail(l, from, err)
	}
	l.rxBytes.Add(n)
	l.rxFrames.Add(1)
	return nil
}

// Recv receives the next message from peer `from` whatever its length
// (up to maxRemoteMessage) into a fresh buffer the caller owns: the path
// for the one message whose size the receiver cannot know, the elastic
// snapshot a rejoining rank is sent. to must be the local rank.
func (f *RemoteFabric) Recv(from, to int) ([]byte, error) {
	if err := f.checkPeer(to, from, "receive"); err != nil {
		return nil, err
	}
	l := &f.links[from]
	l.rmu.Lock()
	defer l.rmu.Unlock()
	n, err := f.readPrefix(l, from)
	if err != nil {
		return nil, err
	}
	if n > maxRemoteMessage {
		l.rerr = fmt.Errorf("comm: rank %d announces a %d-byte message, cap is %d", from, n, maxRemoteMessage)
		return nil, l.rerr
	}
	// Grow by at most recvChunk beyond what has arrived, each chunk
	// allocated once (slices.Grow amortises the copies of the prefix).
	var buf []byte
	for len(buf) < int(n) {
		start := len(buf)
		end := start + min(int(n)-start, recvChunk)
		buf = slices.Grow(buf, end-start)[:end]
		if _, err := io.ReadFull(l.conn, buf[start:]); err != nil {
			return nil, f.recvFail(l, from, err)
		}
	}
	l.rxBytes.Add(n)
	l.rxFrames.Add(1)
	return buf, nil
}

// readPrefix reads the next message's length prefix. The caller holds
// l.rmu.
func (f *RemoteFabric) readPrefix(l *remoteLink, from int) (int64, error) {
	if err := f.lifecycleErr(); err != nil {
		return 0, err
	}
	if l.rerr != nil {
		return 0, l.rerr
	}
	if _, err := io.ReadFull(l.conn, l.prefix[:]); err != nil {
		return 0, f.recvFail(l, from, err)
	}
	return int64(binary.LittleEndian.Uint32(l.prefix[:])), nil
}

// recvFail maps a socket read failure to the lifecycle error during
// shutdown (the abort verdict, or ErrClosed after an orderly Close);
// otherwise it poisons the link with the wrapped failure, since part of
// a message may have been consumed.
func (f *RemoteFabric) recvFail(l *remoteLink, from int, err error) error {
	if lerr := f.lifecycleErr(); lerr != nil {
		return lerr
	}
	l.rerr = fmt.Errorf("comm: recv from rank %d: %w", from, err)
	return l.rerr
}

// TotalBytes implements Transport: payload bytes sent by the local
// rank, the sum of every link's TxBytes.
func (f *RemoteFabric) TotalBytes() int64 {
	var n int64
	for p := range f.links {
		n += f.links[p].txBytes.Load()
	}
	return n
}

// TotalMessages implements Transport: messages sent by the local rank,
// the sum of every link's TxFrames.
func (f *RemoteFabric) TotalMessages() int64 {
	var n int64
	for p := range f.links {
		n += f.links[p].txFrames.Load()
	}
	return n
}

// PeerTraffic returns the accounting snapshot for the link to peer p.
// The local rank's own slot is always zero.
func (f *RemoteFabric) PeerTraffic(p int) PeerTraffic {
	if p < 0 || p >= f.k {
		panic(fmt.Sprintf("comm: peer %d outside world of %d", p, f.k))
	}
	l := &f.links[p]
	return PeerTraffic{
		TxBytes:  l.txBytes.Load(),
		RxBytes:  l.rxBytes.Load(),
		TxFrames: l.txFrames.Load(),
		RxFrames: l.rxFrames.Load(),
	}
}

// Close flushes queued messages to the peers (bounded by drainTimeout —
// slower ranks may still be reading this rank's tail of the final
// exchange) and then shuts every connection down. Subsequent — and
// concurrently blocked — Send and Recv calls return ErrClosed. Close is
// idempotent.
func (f *RemoteFabric) Close() error {
	if !f.beginClose() {
		return nil
	}
	return f.teardown(time.Now().Add(drainTimeout))
}

// Abort tears the fabric down with a verdict: every Send and Recv —
// blocked mid-call or issued later — returns err instead of ErrClosed.
// Unlike Close it does not drain queued sends: an abort means a peer is
// gone and the exchange it belonged to is void, so the sockets are cut
// immediately. This is the hook the cluster health plane pulls when its
// failure detector declares a peer dead (err is then a
// health.ErrPeerDead), turning "survivors hang inside a blocking Recv"
// into a prompt, typed unblock on every rank. Abort after Close is a
// no-op; Close after Abort is a no-op.
func (f *RemoteFabric) Abort(err error) {
	if err == nil {
		err = ErrClosed
	}
	// Only the winner of the close transition installs the verdict: if
	// an orderly Close got there first, ErrClosed semantics stand and
	// the late verdict is dropped. Blocked callers are only woken by
	// the teardown below, which runs after the verdict is in place, so
	// every interrupted call observes it.
	if !f.beginClose() {
		return
	}
	f.aerr.Store(&err)
	f.teardown(time.Now())
}

// beginClose marks the fabric closed, reporting whether this call won
// the transition. TCPFabric marks all of its rank views closed before
// tearing any of them down, so a Recv blocked on one rank observes
// ErrClosed — not a spurious transport error — when a sibling rank's
// socket end disappears first.
func (f *RemoteFabric) beginClose() bool {
	return f.closed.CompareAndSwap(false, true)
}

// teardown drains and closes a fabric already marked closed. The
// caller supplies the drain deadline so that a multi-rank owner
// (TCPFabric) can tear its ranks down sequentially under one shared
// bound instead of paying the drain timeout once per rank.
func (f *RemoteFabric) teardown(deadline time.Time) error {
	// Bound the drain first: a peer that has stalled mid-stream (full
	// TCP window, frozen process) keeps its writer blocked inside
	// conn.Write, and a training goroutine may be blocked in Send on
	// that link's full queue holding qmu's read lock — the deadline
	// unsticks the writer, closing unsticks the sender, and only then
	// can the write lock be taken to close the queues. Readers are cut
	// immediately: a closed fabric owes its callers ErrClosed (or the
	// abort verdict) now, not after the drain — and a half-open peer
	// that will never send another byte must not be able to park a
	// blocked Recv behind the whole drain window.
	now := time.Now()
	for p := range f.links {
		if c := f.links[p].conn; c != nil {
			c.SetReadDeadline(now)
			c.SetWriteDeadline(deadline)
		}
	}
	f.unblockOnce.Do(func() { close(f.unblock) })
	// Stop new sends, then let the writers drain what is queued.
	f.qmu.Lock()
	for p := range f.links {
		if q := f.links[p].queue; q != nil {
			close(q)
		}
	}
	f.qmu.Unlock()
	f.writers.Wait()
	var first error
	for p := range f.links {
		if c := f.links[p].conn; c != nil {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
