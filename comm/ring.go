package comm

import (
	"fmt"

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
	fabric  Transport
	framed  bool
	tracer  *obs.Tracer
	workers []ringWorker // per rank; each rank's Reduce runs on its own goroutine
}

// ringWorker is one rank's state across Reduce calls, so a hop
// allocates nothing once the buffers have met the largest chunk.
type ringWorker struct {
	// encs holds one "32bit" encoder per chunk length seen — an
	// encoder's frame header is bound to its length, and a tensor cut
	// into K chunks has at most two lengths.
	encs map[int]quant.Encoder
	vals []float32 // a decoded chunk awaiting accumulation
	in   inbound   // every chunk arrives as "32bit"
	endpoint
}

// NewRing builds the primitive over the fabric.
func NewRing(f Transport) *Ring {
	r := &Ring{fabric: f, framed: f.Framed(), workers: make([]ringWorker, f.K())}
	for i := range r.workers {
		r.workers[i] = ringWorker{
			encs:     map[int]quant.Encoder{},
			in:       newInbound(quant.FP32{}, quant.Shape{}),
			endpoint: endpoint{fabric: f, framed: r.framed},
		}
	}
	return r
}

// Name implements Reducer.
func (r *Ring) Name() string { return "nccl-ring" }

// SetTracer makes Reduce record encode (chunk to "32bit" wire form),
// transfer and decode spans per allreduce. A nil tracer disables
// tracing again.
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

// chunk returns chunk c (taken mod k) of g cut into k chunks.
func chunk(g []float32, k, c int) []float32 {
	c = (c%k + k) % k
	return g[c*len(g)/k : (c+1)*len(g)/k]
}

// Reduce implements Reducer. After it returns on all peers, g holds the
// full-precision sum; every peer's copy is bit-identical because each
// chunk's final value is computed once and propagated as bytes.
func (r *Ring) Reduce(rank, _ int, g []float32) error {
	k := r.fabric.K()
	if k == 1 {
		return nil
	}
	right, left := (rank+1)%k, (rank-1+k)%k
	w := &r.workers[rank]
	w.acc = spanAcc{}
	reduceStart := r.tracer.Now()
	// Reduce-scatter: after step s, the chunk received has s+2 partial
	// contributions; after K−1 steps rank r owns the complete chunk
	// (r+1) mod K.
	for step := 0; step < k-1; step++ {
		if err := r.send(w, rank, right, chunk(g, k, rank-step)); err != nil {
			return fmt.Errorf("comm: ring reduce-scatter step %d: %w", step, err)
		}
		into := chunk(g, k, rank-step-1)
		if cap(w.vals) < len(into) {
			w.vals = make([]float32, len(into))
		}
		vals := w.vals[:len(into)]
		if err := w.recv(r.tracer, &w.in, left, rank, vals); err != nil {
			return fmt.Errorf("comm: ring reduce-scatter step %d: %w", step, err)
		}
		for i, v := range vals {
			into[i] += v
		}
	}
	// Allgather: rotate finished chunks around the ring; each decodes
	// straight into place.
	for step := 0; step < k-1; step++ {
		if err := r.send(w, rank, right, chunk(g, k, rank-step+1)); err != nil {
			return fmt.Errorf("comm: ring allgather step %d: %w", step, err)
		}
		if err := w.recv(r.tracer, &w.in, left, rank, chunk(g, k, rank-step)); err != nil {
			return fmt.Errorf("comm: ring allgather step %d: %w", step, err)
		}
	}
	w.acc.record(r.tracer, rank, "ring", reduceStart)
	return nil
}

// send ships vals from -> to in "32bit" wire form.
func (r *Ring) send(w *ringWorker, from, to int, vals []float32) error {
	t0 := r.tracer.Now()
	enc, ok := w.encs[len(vals)]
	if !ok {
		enc = quant.FP32{}.NewEncoder(len(vals), quant.Shape{Rows: 1, Cols: len(vals)}, 0)
		w.encs[len(vals)] = enc
	}
	payload := enc.Encode(vals)
	w.acc.encode += r.tracer.Now() - t0
	return w.endpoint.send(r.tracer, enc, from, to, payload)
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

// SetTracer traces the wrapped ring.
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
