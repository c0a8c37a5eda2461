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
// of a message, and the traced receive of a message — placed in the
// caller's floats, or decoded from a staging buffer. One goroutine's at
// a time.
type endpoint struct {
	fabric Transport
	buf    []byte   // staging buffer, grown to the largest message
	acc    *spanAcc // the phase times of the tensor whose step runs
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

// recv receives the message carrying vals from -> to and requires its
// frame header to be own.header (quant.MatchHeader). With own.place set
// the payload lands straight in vals' memory, the header in the staging
// buffer; otherwise the whole message lands in own.relay — the staging
// buffer when nil — and its payload is decoded with spec's codec into
// vals, or with add set added into vals (quant.Codec.DecodeAdd). It
// returns the payload as it arrived.
func (e *endpoint) recv(tr *obs.Tracer, spec TensorSpec, own *stepState, from, to int, vals []float32, add bool) ([]byte, error) {
	h := len(own.header)
	var msg, payload []byte
	t0 := tr.Now()
	if own.place {
		msg, payload = e.staging(h), fp32Bytes(vals)
		if err := e.fabric.RecvInto(from, to, msg, payload); err != nil {
			return nil, fmt.Errorf("recv: %w", err)
		}
	} else {
		msg = own.relay
		if msg == nil {
			msg = e.staging(h + spec.Codec.EncodedBytes(len(vals), spec.Wire))
		}
		if err := e.fabric.RecvInto(from, to, nil, msg); err != nil {
			return nil, fmt.Errorf("recv: %w", err)
		}
		msg, payload = msg[:h], msg[h:]
	}
	e.acc.transfer += tr.Now() - t0
	e.acc.bytes += int64(h + len(payload))
	if err := quant.MatchHeader(msg, own.header); err != nil {
		return nil, err
	}
	if own.place {
		return payload, nil
	}
	t0 = tr.Now()
	var err error
	if add {
		err = spec.Codec.DecodeAdd(payload, len(vals), spec.Wire, vals)
	} else {
		err = spec.Codec.Decode(payload, len(vals), spec.Wire, vals)
	}
	e.acc.decode += tr.Now() - t0
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return payload, nil
}

// staging returns the staging buffer cut to n bytes.
func (e *endpoint) staging(n int) []byte {
	if cap(e.buf) < n {
		e.buf = make([]byte, n)
	}
	return e.buf[:n]
}
