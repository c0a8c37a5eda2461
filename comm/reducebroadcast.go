package comm

import (
	"fmt"

	"repro/obs"
	"repro/quant"
)

// TensorSpec describes one gradient tensor to a Reducer: its flat length,
// its CNTK wire shape (which fixes quantisation-group boundaries) and the
// codec that carries it.
type TensorSpec struct {
	Name  string
	N     int
	Wire  quant.Shape
	Codec quant.Codec
}

// stripe is a contiguous, group-aligned range of one tensor owned by one
// peer during reduce-and-broadcast.
type stripe struct{ off, n int }

// splitStripes partitions n elements into k stripes aligned to group
// boundaries, as the paper's "model of dimension n is split into n/K
// consecutive ranges" with the constraint that a quantisation group is
// never torn across owners.
func splitStripes(n, group, k int) []stripe {
	groups := 0
	if n > 0 {
		groups = (n + group - 1) / group
	}
	out := make([]stripe, k)
	prev := 0
	for i := 0; i < k; i++ {
		// Even split of groups with remainder spread over the first few.
		g := groups / k
		if i < groups%k {
			g++
		}
		end := prev + g*group
		if end > n {
			end = n
		}
		out[i] = stripe{off: prev, n: end - prev}
		prev = end
	}
	return out
}

// ReduceBroadcast implements the MPI reduce-and-broadcast aggregation of
// §2.4.1 with optional quantisation: every peer encodes each stripe of
// its gradient with the tensor's codec and sends it to the stripe's
// owner; the owner decodes and sums all K contributions, re-encodes the
// aggregate (with its own error-feedback state, as CNTK's 1bitSGD does),
// and broadcasts it; every peer — including the owner — then decodes the
// broadcast, so all replicas remain bit-identical.
//
// Over a framed transport (Transport.Framed, e.g. TCPFabric) every
// message is the encoder's self-describing quant frame header followed
// by its payload, so the peers need no out-of-band agreement on codecs
// or shapes; over an in-process fabric the bare payload travels. The
// decoded values — and therefore the training trajectory — are
// identical either way.
type ReduceBroadcast struct {
	fabric  Transport
	framed  bool
	seed    uint64
	specs   []TensorSpec
	stripes [][]stripe
	workers []*rbWorker
	tracer  *obs.Tracer
}

type rbWorker struct {
	// stripeEnc[t][o] encodes this worker's stripe o of tensor t.
	stripeEnc [][]quant.Encoder
	// aggEnc[t] re-encodes the aggregate of this worker's own stripe.
	aggEnc []quant.Encoder
	// scratch decode buffer, sized to the largest stripe.
	tmp   []float32
	accum []float32
	// in[t] describes (and decodes) tensor t's incoming messages.
	in []inbound
	endpoint
}

// NewReduceBroadcast builds the primitive for the given tensors over the
// fabric, with encoder state for every rank. seed separates the
// stochastic quantisation streams of different experiments.
func NewReduceBroadcast(f Transport, specs []TensorSpec, seed uint64) *ReduceBroadcast {
	ranks := make([]int, f.K())
	for i := range ranks {
		ranks[i] = i
	}
	return NewReduceBroadcastLocal(f, specs, seed, ranks)
}

// NewReduceBroadcastLocal builds the primitive with encoder state only
// for the given local ranks — what a cluster worker process needs,
// since it drives exactly one rank of the world and the other ranks'
// error-feedback residuals and RNG streams live in their own
// processes. Seeds are derived per (rank, tensor, stripe) coordinate,
// so the encoders a rank builds here are bit-identical to the ones it
// would get from the all-ranks constructor.
func NewReduceBroadcastLocal(f Transport, specs []TensorSpec, seed uint64, ranks []int) *ReduceBroadcast {
	k := f.K()
	rb := &ReduceBroadcast{
		fabric:  f,
		framed:  f.Framed(),
		seed:    seed,
		specs:   specs,
		stripes: make([][]stripe, len(specs)),
		workers: make([]*rbWorker, k),
	}
	maxStripe := 0
	for t, spec := range specs {
		g := spec.Codec.GroupSize(spec.Wire)
		rb.stripes[t] = splitStripes(spec.N, g, k)
		for _, st := range rb.stripes[t] {
			maxStripe = max(maxStripe, st.n)
		}
	}
	for _, w := range ranks {
		if w < 0 || w >= k {
			panic(fmt.Sprintf("comm: local rank %d outside world of %d", w, k))
		}
		ws := &rbWorker{
			stripeEnc: make([][]quant.Encoder, len(specs)),
			aggEnc:    make([]quant.Encoder, len(specs)),
			tmp:       make([]float32, maxStripe),
			accum:     make([]float32, maxStripe),
			in:        make([]inbound, len(specs)),
			endpoint:  endpoint{fabric: f, framed: rb.framed},
		}
		for t, spec := range specs {
			ws.in[t] = newInbound(spec.Codec, spec.Wire)
			ws.stripeEnc[t] = make([]quant.Encoder, k)
			for o := 0; o < k; o++ {
				st := rb.stripes[t][o]
				if st.n == 0 {
					continue
				}
				ws.stripeEnc[t][o] = spec.Codec.NewEncoder(st.n, spec.Wire,
					mixSeed(seed, uint64(w), uint64(t), uint64(o)))
			}
			if own := rb.stripes[t][w]; own.n > 0 {
				ws.aggEnc[t] = spec.Codec.NewEncoder(own.n, spec.Wire,
					mixSeed(seed, uint64(w), uint64(t), aggStripe))
			}
		}
		rb.workers[w] = ws
	}
	return rb
}

// mixSeed derives a distinct stream seed from identifying coordinates.
func mixSeed(parts ...uint64) uint64 {
	var z uint64 = 0x9e3779b97f4a7c15
	for _, p := range parts {
		z ^= p + 0x9e3779b97f4a7c15 + (z << 6) + (z >> 2)
		z *= 0xbf58476d1ce4e5b9
	}
	return z
}

// Name implements Reducer.
func (rb *ReduceBroadcast) Name() string { return "mpi-rb" }

// SetTracer makes Reduce record per-tensor quantise/transfer/decode
// spans. A nil tracer disables tracing again.
func (rb *ReduceBroadcast) SetTracer(tr *obs.Tracer) { rb.tracer = tr }

// aggStripe is the stripe coordinate reserved for a worker's aggregate
// re-encoder in seed derivation — outside any real stripe index, so the
// aggregate stream never collides with a gather stream.
const aggStripe = 1 << 32

// BeginStep repositions every local stochastic encoder stream
// (quant.Reseeder — QSGD's stochastic rounding) to the seed derived
// from (experiment seed, rank, tensor, stripe, step).
//
// An elastic trainer calls it with the 1-based index of the step about
// to run, on every rank, before any Reduce of that step, which makes the random draws of step s a pure function of the step's
// coordinates instead of the cumulative draw history (non-elastic runs
// keep the paper's original cumulative streams). That property is
// what elastic sessions (repro/elastic) lean on: a replacement rank can
// reconstruct exactly the stream the dead rank would have used, and a
// survivor whose aborted half-step consumed draws mid-exchange rewinds
// simply by re-entering the step. Error-feedback state (1bitSGD, top-k
// residuals) is data-dependent and not covered — see the elastic
// package notes on exact-resume guarantees.
//
// Encoded byte volumes do not depend on the draw values, so step-keyed
// streams leave WireBytesPerExchange — and the performance model's TCP
// byte parity — untouched.
func (rb *ReduceBroadcast) BeginStep(step int64) {
	for w, ws := range rb.workers {
		if ws == nil {
			continue
		}
		for t := range rb.specs {
			for o, enc := range ws.stripeEnc[t] {
				if r, ok := enc.(quant.Reseeder); ok {
					r.Reseed(mixSeed(rb.seed, uint64(w), uint64(t), uint64(o), uint64(step)))
				}
			}
			if r, ok := ws.aggEnc[t].(quant.Reseeder); ok {
				r.Reseed(mixSeed(rb.seed, uint64(w), uint64(t), aggStripe, uint64(step)))
			}
		}
	}
}

// WireBytesPerExchange returns the bytes one full gradient exchange puts
// on the fabric: for every tensor, each of the K peers sends K−1 encoded
// stripes and each owner broadcasts its aggregate to K−1 peers. Over a
// framed transport every message additionally carries the
// self-describing frame header.
func (rb *ReduceBroadcast) WireBytesPerExchange() int64 {
	return ReduceBroadcastWireBytes(rb.specs, rb.fabric.K(), rb.framed)
}

// ReduceBroadcastWireBytes predicts the bytes one full gradient exchange
// of the given tensors puts on a k-peer fabric under the
// reduce-and-broadcast pattern, without building the primitive. With
// framed set, every message additionally carries the self-describing
// quant frame header — the overhead a TCP byte counter measures. The
// performance simulator prices exchanges through this same function, so
// simulated and measured TCP volumes agree byte-for-byte.
func ReduceBroadcastWireBytes(specs []TensorSpec, k int, framed bool) int64 {
	var total int64
	for _, spec := range specs {
		var overhead int64
		if framed {
			overhead = int64(quant.FrameOverhead(spec.Codec.Name()))
		}
		stripes := splitStripes(spec.N, spec.Codec.GroupSize(spec.Wire), k)
		for _, st := range stripes {
			if st.n == 0 {
				continue
			}
			msg := int64(spec.Codec.EncodedBytes(st.n, spec.Wire)) + overhead
			total += msg * int64(k-1) // gather to owner
			total += msg * int64(k-1) // broadcast from owner
		}
	}
	return total
}

// Reduce implements Reducer.
func (rb *ReduceBroadcast) Reduce(rank, tensorID int, g []float32) error {
	if tensorID < 0 || tensorID >= len(rb.specs) {
		return fmt.Errorf("comm: unknown tensor %d", tensorID)
	}
	spec := rb.specs[tensorID]
	if len(g) != spec.N {
		return fmt.Errorf("comm: tensor %s has %d elements, got %d", spec.Name, spec.N, len(g))
	}
	k := rb.fabric.K()
	if k == 1 {
		return nil
	}
	if rank < 0 || rank >= k || rb.workers[rank] == nil {
		return fmt.Errorf("comm: rank %d has no local reduce-broadcast state", rank)
	}
	ws := rb.workers[rank]
	stripes := rb.stripes[tensorID]
	tr := rb.tracer
	ws.acc = spanAcc{}
	reduceStart := tr.Now()

	// Phase 1: encode each stripe and ship it to its owner. The local
	// stripe is encoded too (the sender-side residual must advance
	// uniformly) but stays local.
	var ownWire []byte // owned by stripeEnc[tensorID][rank] (or a view of g) until phase 2 decodes it
	for o := 0; o < k; o++ {
		st := stripes[o]
		if st.n == 0 {
			continue
		}
		enc := ws.stripeEnc[tensorID][o]
		t0 := tr.Now()
		wire := enc.Encode(g[st.off : st.off+st.n])
		ws.acc.quantise += tr.Now() - t0
		if o == rank {
			ownWire = wire
		} else if err := ws.send(tr, enc, rank, o, wire); err != nil {
			return fmt.Errorf("comm: send stripe of %s to %d: %w", spec.Name, o, err)
		}
	}

	// Phase 2: owners decode and sum all contributions, re-encode the
	// aggregate, and broadcast it.
	if own := stripes[rank]; own.n > 0 {
		accum := ws.accum[:own.n]
		t0 := tr.Now()
		if err := spec.Codec.Decode(ownWire, own.n, spec.Wire, accum); err != nil {
			return fmt.Errorf("comm: decode own stripe of %s: %w", spec.Name, err)
		}
		ws.acc.decode += tr.Now() - t0
		tmp := ws.tmp[:own.n]
		for p := 0; p < k; p++ {
			if p == rank {
				continue
			}
			if err := ws.recv(tr, &ws.in[tensorID], p, rank, tmp); err != nil {
				return fmt.Errorf("comm: stripe of %s from %d: %w", spec.Name, p, err)
			}
			for i, v := range tmp {
				accum[i] += v
			}
		}
		// The owner adopts the decoded broadcast, not the raw sum, so
		// every replica sees identical bytes.
		agg := ws.aggEnc[tensorID]
		t0 = tr.Now()
		aggWire := agg.Encode(accum)
		ws.acc.quantise += tr.Now() - t0
		for p := 0; p < k; p++ {
			if p != rank {
				if err := ws.send(tr, agg, rank, p, aggWire); err != nil {
					return fmt.Errorf("comm: broadcast aggregate of %s to %d: %w", spec.Name, p, err)
				}
			}
		}
		t0 = tr.Now()
		if err := spec.Codec.Decode(aggWire, own.n, spec.Wire, g[own.off:own.off+own.n]); err != nil {
			return fmt.Errorf("comm: decode own aggregate of %s: %w", spec.Name, err)
		}
		ws.acc.decode += tr.Now() - t0
	}

	// Phase 3: receive the aggregated stripes owned by the other peers.
	for o := 0; o < k; o++ {
		st := stripes[o]
		if o == rank || st.n == 0 {
			continue
		}
		if err := ws.recv(tr, &ws.in[tensorID], o, rank, g[st.off:st.off+st.n]); err != nil {
			return fmt.Errorf("comm: aggregate of %s from %d: %w", spec.Name, o, err)
		}
	}
	ws.acc.record(tr, rank, spec.Name, reduceStart)
	return nil
}
