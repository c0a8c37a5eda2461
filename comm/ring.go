package comm

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/obs"
	"repro/quant"
)

// Ring implements the NCCL-style ring allreduce of §2.4.2: the vector is
// cut into K chunks; a reduce-scatter phase rotates partial sums around
// the ring for K−1 steps, then an allgather phase rotates the finished
// chunks for another K−1 steps. Each peer transmits 2·(K−1)/K of the
// buffer — the bandwidth-optimal collective NCCL builds on GPU rings.
//
// Faithful to NCCL, the reduction semantics are full-precision float32
// sums: there is no codec hook. (The paper's "NCCL low-precision"
// numbers are simulated by sending fewer bytes; see SimulatedRing.)
//
// Over a framed transport each chunk travels as a self-describing
// "32bit" frame, so ring peers — like reduce-and-broadcast peers — need
// no out-of-band agreement to decode.
type Ring struct {
	fabric Transport
	framed bool
	tracer *obs.Tracer
}

// NewRing builds the primitive over the fabric.
func NewRing(f Transport) *Ring { return &Ring{fabric: f, framed: f.Framed()} }

// Name implements Reducer.
func (r *Ring) Name() string { return "nccl-ring" }

// SetTracer implements Traceable: Reduce then records encode (packF32),
// transfer and decode (unpackF32) spans per allreduce.
func (r *Ring) SetTracer(tr *obs.Tracer) { r.tracer = tr }

// WireBytesPerExchange returns the bytes one allreduce of n float32
// values puts on the fabric across all peers: K · 2(K−1)/K · 4n, plus
// one frame header per message on a framed transport (each peer sends
// one chunk per step, 2(K−1) steps).
func (r *Ring) WireBytesPerExchange(n int) int64 {
	return RingWireBytes(n, r.fabric.K(), r.framed)
}

// RingWireBytes predicts the bytes one ring allreduce of n float32
// values puts on a k-peer fabric, without building the primitive. With
// framed set, every chunk message additionally carries a
// self-describing "32bit" frame header — the overhead a TCP byte
// counter measures. The performance simulator prices exchanges through
// this same function, so simulated and measured volumes agree
// byte-for-byte.
func RingWireBytes(n, k int, framed bool) int64 {
	kk := int64(k)
	if kk == 1 {
		return 0
	}
	// Each of the 2(K−1) steps moves every chunk boundary exactly once
	// per peer; summed over peers each step moves the whole vector once.
	total := 2 * (kk - 1) * int64(4*n)
	if framed {
		total += 2 * (kk - 1) * kk * int64(quant.FrameOverhead("32bit"))
	}
	return total
}

// chunkRange returns the element range of chunk c when n elements are
// cut into k chunks.
func chunkRange(n, k, c int) (lo, hi int) {
	lo = c * n / k
	hi = (c + 1) * n / k
	return lo, hi
}

// packF32 serialises vals as raw little-endian float32 bytes, wrapped
// in a self-describing "32bit" frame when framed is set.
func packF32(vals []float32, framed bool) []byte {
	raw := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(raw[4*i:], math.Float32bits(v))
	}
	if !framed {
		return raw
	}
	return quant.AppendFramed(nil, "32bit", quant.Shape{Rows: 1, Cols: len(vals)}, len(vals), raw)
}

// unpackF32 reverses packF32, validating that exactly n values arrived.
// dec is the caller's frame decoder, which remembers the "32bit" codec
// from one message of a collective to the next.
func unpackF32(buf []byte, n int, framed bool, dec *quant.FrameDecoder) ([]float32, error) {
	vals := make([]float32, n)
	if framed {
		if _, err := dec.Decode(buf, vals); err != nil {
			return nil, err
		}
		return vals, nil
	}
	if len(buf) != 4*n {
		return nil, fmt.Errorf("comm: message has %d bytes, want %d", len(buf), 4*n)
	}
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return vals, nil
}

// Reduce implements Reducer. After it returns on all peers, g holds the
// full-precision sum; every peer's copy is bit-identical because each
// chunk's final value is computed once and propagated as bytes.
func (r *Ring) Reduce(rank, _ int, g []float32) error {
	k := r.fabric.K()
	if k == 1 {
		return nil
	}
	n := len(g)
	right := (rank + 1) % k
	left := (rank - 1 + k) % k

	// The Ring is shared by every local rank's goroutine, so the phase
	// accumulator lives on the stack, captured by the chunk closures.
	tr := r.tracer
	var acc spanAcc
	var dec quant.FrameDecoder
	reduceStart := tr.Now()

	sendChunk := func(c int) error {
		lo, hi := chunkRange(n, k, c)
		t0 := tr.Now()
		buf := packF32(g[lo:hi], r.framed)
		acc.encode += tr.Now() - t0
		t0 = tr.Now()
		if err := r.fabric.Send(rank, right, buf); err != nil {
			return fmt.Errorf("comm: ring send chunk %d: %w", c, err)
		}
		acc.transfer += tr.Now() - t0
		acc.bytes += int64(len(buf))
		return nil
	}
	recvChunk := func(c int, add bool) error {
		lo, hi := chunkRange(n, k, c)
		t0 := tr.Now()
		buf, err := r.fabric.Recv(left, rank)
		if err != nil {
			return fmt.Errorf("comm: ring recv chunk %d: %w", c, err)
		}
		acc.transfer += tr.Now() - t0
		acc.bytes += int64(len(buf))
		t0 = tr.Now()
		vals, err := unpackF32(buf, hi-lo, r.framed, &dec)
		if err != nil {
			return fmt.Errorf("comm: ring chunk %d: %w", c, err)
		}
		acc.decode += tr.Now() - t0
		for i := lo; i < hi; i++ {
			if add {
				g[i] += vals[i-lo]
			} else {
				g[i] = vals[i-lo]
			}
		}
		return nil
	}

	// Reduce-scatter: after step s, the chunk received has s+2 partial
	// contributions; after K−1 steps rank r owns the complete chunk
	// (r+1) mod K.
	for step := 0; step < k-1; step++ {
		if err := sendChunk(((rank-step)%k + k) % k); err != nil {
			return err
		}
		if err := recvChunk(((rank-step-1)%k+k)%k, true); err != nil {
			return err
		}
	}
	// Allgather: rotate finished chunks around the ring.
	for step := 0; step < k-1; step++ {
		if err := sendChunk(((rank-step+1)%k + k) % k); err != nil {
			return err
		}
		if err := recvChunk(((rank-step)%k+k)%k, false); err != nil {
			return err
		}
	}
	acc.record(tr, rank, "ring", reduceStart)
	return nil
}

// SimulatedRing reproduces the paper's NCCL low-precision *simulation*
// (§4.4): NCCL cannot sum quantised payloads, so the authors measure a
// hypothetical low-precision NCCL by sending exactly the byte volume a
// quantised allreduce would send. Here the gradient values are reduced
// exactly (via the full-precision ring) so that training remains
// meaningful, while SimulatedBytes reports the low-precision wire
// volume used for performance accounting — the same separation of
// semantics and cost the paper makes ("the GPUs will converge at a lower
// rate or could diverge, but this is irrelevant for the experiment").
type SimulatedRing struct {
	ring *Ring
	// BytesFraction scales the true fp32 volume to the simulated one
	// (e.g. 4-bit QSGD with bucket 512 gives ≈ 507/4096).
	BytesFraction float64
	simulated     int64
}

// NewSimulatedRing wraps a ring with a simulated wire-volume fraction.
func NewSimulatedRing(f Transport, fraction float64) *SimulatedRing {
	if fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("comm: simulated fraction %v outside (0,1]", fraction))
	}
	return &SimulatedRing{ring: NewRing(f), BytesFraction: fraction}
}

// Name implements Reducer.
func (s *SimulatedRing) Name() string { return "nccl-ring-sim" }

// SetTracer implements Traceable by delegating to the wrapped ring.
func (s *SimulatedRing) SetTracer(tr *obs.Tracer) { s.ring.SetTracer(tr) }

// Reduce implements Reducer.
func (s *SimulatedRing) Reduce(rank, tensorID int, g []float32) error {
	if err := s.ring.Reduce(rank, tensorID, g); err != nil {
		return err
	}
	if rank == 0 {
		s.simulated += int64(float64(s.ring.WireBytesPerExchange(len(g))) * s.BytesFraction)
	}
	return nil
}

// SimulatedBytes returns the cumulative wire volume a low-precision NCCL
// would have transmitted.
func (s *SimulatedRing) SimulatedBytes() int64 { return s.simulated }

// AllGather is the naive quadratic-traffic oracle: every peer broadcasts
// its full vector and everyone sums all K copies in rank order. It is
// used in tests as the correctness reference for the optimised
// primitives.
type AllGather struct {
	fabric Transport
}

// NewAllGather builds the oracle reducer.
func NewAllGather(f Transport) *AllGather { return &AllGather{fabric: f} }

// Name implements Reducer.
func (a *AllGather) Name() string { return "allgather" }

// Reduce implements Reducer.
func (a *AllGather) Reduce(rank, _ int, g []float32) error {
	k := a.fabric.K()
	if k == 1 {
		return nil
	}
	n := len(g)
	framed := a.fabric.Framed()
	buf := packF32(g, framed)
	for p := 0; p < k; p++ {
		if p != rank {
			if err := a.fabric.Send(rank, p, buf); err != nil {
				return fmt.Errorf("comm: allgather to %d: %w", p, err)
			}
		}
	}
	// Sum contributions in rank order for cross-peer determinism.
	sum := make([]float64, n)
	mine := make([]float32, n)
	copy(mine, g)
	var dec quant.FrameDecoder
	for p := 0; p < k; p++ {
		if p == rank {
			for i, v := range mine {
				sum[i] += float64(v)
			}
			continue
		}
		buf, err := a.fabric.Recv(p, rank)
		if err != nil {
			return fmt.Errorf("comm: allgather from %d: %w", p, err)
		}
		in, err := unpackF32(buf, n, framed, &dec)
		if err != nil {
			return fmt.Errorf("comm: allgather from %d: %w", p, err)
		}
		for i := 0; i < n; i++ {
			sum[i] += float64(in[i])
		}
	}
	for i := range g {
		g[i] = float32(sum[i])
	}
	return nil
}
