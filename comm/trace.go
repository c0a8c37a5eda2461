package comm

import (
	"fmt"

	"repro/obs"
	"repro/quant"
)

// PeerAccounter is implemented by fabrics that keep per-peer link
// ledgers — RemoteFabric for one rank's mesh view, TCPFabric for the
// process-level sum over its local ranks.
type PeerAccounter interface {
	PeerTraffic(p int) PeerTraffic
}

// spanAcc accumulates one tensor's phase durations over an exchange so
// the reducer records a handful of coarse spans per tensor instead of
// one per message. All fields are nanoseconds except bytes. With a nil
// tracer every accumulated delta is zero (obs.(*Tracer).Now returns 0)
// and the final Record calls are no-ops, so the accounting is inert.
type spanAcc struct {
	quantise, encode, transfer, decode, bytes int64
}

// record flushes the non-empty phases as spans anchored at startNS.
func (a *spanAcc) record(tr *obs.Tracer, rank int, op string, startNS int64) {
	if tr == nil {
		return
	}
	if a.quantise > 0 {
		tr.Record(rank, obs.PhaseQuantise, op, -1, 0, startNS, a.quantise)
	}
	if a.encode > 0 {
		tr.Record(rank, obs.PhaseEncode, op, -1, 0, startNS, a.encode)
	}
	if a.transfer > 0 {
		tr.Record(rank, obs.PhaseTransfer, op, -1, a.bytes, startNS, a.transfer)
	}
	if a.decode > 0 {
		tr.Record(rank, obs.PhaseDecode, op, -1, 0, startNS, a.decode)
	}
}

// endpoint is one rank's end of a collective's traffic: the traced send
// of a message, and the traced receive of a message — decoded from a
// staging buffer, or placed in the caller's floats. One goroutine's at
// a time.
type endpoint struct {
	fabric Transport
	framed bool
	buf    []byte   // staging buffer, grown to the largest message
	acc    *spanAcc // the phase times of the tensor whose step runs
}

// inbound is what a rank knows of the messages one tensor arrives in:
// enough to size the receive, and — for a framed transport, whose
// messages describe themselves — a decoder of its own, which remembers
// the codec this tensor's frames name however its neighbours are encoded.
type inbound struct {
	codec    quant.Codec
	shape    quant.Shape
	overhead int // the codec's frame header size
	dec      quant.FrameDecoder
}

func newInbound(codec quant.Codec, shape quant.Shape) inbound {
	return inbound{codec: codec, shape: shape, overhead: quant.FrameOverhead(codec.Name())}
}

// size returns the length of the message carrying n values.
func (in *inbound) size(n int, framed bool) int {
	size := in.codec.EncodedBytes(n, in.shape)
	if framed {
		size += in.overhead
	}
	return size
}

// send ships header followed by payload from -> to as one message.
func (e *endpoint) send(tr *obs.Tracer, header []byte, from, to int, payload []byte) error {
	t0 := tr.Now()
	err := e.fabric.Send(from, to, header, payload)
	e.acc.transfer += tr.Now() - t0
	if err == nil {
		e.acc.bytes += int64(len(header) + len(payload))
	}
	return err
}

// recv receives the message carrying len(dst) values of the tensor in
// describes into buf — the staging buffer when buf is nil — decodes it
// into dst — or, with add set, adds its values into dst
// (quant.Codec.DecodeAdd) — and returns the message as it arrived.
func (e *endpoint) recv(tr *obs.Tracer, in *inbound, buf []byte, from, to int, dst []float32, add bool) ([]byte, error) {
	wire := buf
	if wire == nil {
		wire = e.staging(in.size(len(dst), e.framed))
	}
	t0 := tr.Now()
	if err := e.fabric.RecvInto(from, to, nil, wire); err != nil {
		return nil, fmt.Errorf("recv: %w", err)
	}
	e.acc.transfer += tr.Now() - t0
	e.acc.bytes += int64(len(wire))
	t0 = tr.Now()
	var err error
	switch {
	case e.framed && add:
		_, err = in.dec.DecodeAdd(wire, dst)
	case e.framed:
		_, err = in.dec.Decode(wire, dst)
	case add:
		err = in.codec.DecodeAdd(wire, len(dst), in.shape, dst)
	default:
		err = in.codec.Decode(wire, len(dst), in.shape, dst)
	}
	e.acc.decode += tr.Now() - t0
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return wire, nil
}

// place receives a 32bit message straight into payload, the values'
// memory, and its frame header into the staging buffer, to be header.
func (e *endpoint) place(tr *obs.Tracer, header []byte, from, to int, payload []byte) error {
	got := e.staging(len(header))
	t0 := tr.Now()
	if err := e.fabric.RecvInto(from, to, got, payload); err != nil {
		return fmt.Errorf("recv: %w", err)
	}
	e.acc.transfer += tr.Now() - t0
	e.acc.bytes += int64(len(got) + len(payload))
	return quant.MatchHeader(got, header)
}

// staging returns the staging buffer cut to n bytes.
func (e *endpoint) staging(n int) []byte {
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	return e.buf[:n]
}
