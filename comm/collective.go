package comm

import (
	"fmt"

	"repro/obs"
	"repro/quant"
)

// Collective is the gradient-aggregation engine: each tensor compiles,
// per local rank, into prim's schedule, and one executor runs the
// schedules — of one tensor for Reduce, of all a step's tensors in
// round order for ReduceAll (see "Order of messages") — encoding every
// send with the tensor's codec. Over a framed transport
// (Transport.Framed) every message is the encoder's self-describing
// quant frame header followed by its payload, so peers need no
// out-of-band codec agreement; in-process the bare payload travels.
// The decoded values are identical either way.
type Collective struct {
	fabric Transport
	framed bool
	prim   Primitive
	seed   uint64
	// specs describes the tensors; nil means any tensor, carried as
	// 32bit and compiled on its first exchange (NewRing).
	specs   []TensorSpec
	workers []*worker // per rank; nil for ranks another process drives
	rounds  int       // rounds in prim's schedule on this fabric
	tracer  *obs.Tracer
}

// worker is one rank's state across exchanges, so a step allocates
// nothing once the buffers have met the largest message.
type worker struct {
	tensors []compiled
	one     [1][]float32 // Reduce's tensor, as the executor's list
	endpoint
}

// compiled is one rank's schedule for one tensor: the steps over its
// chunks, where each round's steps begin, the encoder behind each
// encodeSend step (nil elsewhere), what the rank knows of the tensor's
// incoming messages, and the phase times of its current exchange.
type compiled struct {
	spec      TensorSpec
	chunks    []chunk
	steps     []step
	bounds    []int // round ρ's steps are steps[bounds[ρ]:bounds[ρ+1]]
	encs      []quant.Encoder
	in        inbound
	acc       spanAcc
	quantises bool // encoding is quantisation, not a 32bit byte view (for spans)
}

// NewCollective builds prim's collective for the given tensors over the
// fabric, with encoder state for the given local ranks — nil means
// every rank. A cluster worker process passes its one rank: the other
// ranks' error-feedback residuals and RNG streams live in their own
// processes. Seeds derive from (seed, rank, tensor, slot) coordinates,
// so a rank's encoders are the same whichever ranks are local.
func NewCollective(f Transport, prim Primitive, specs []TensorSpec, seed uint64, ranks []int) *Collective {
	if prim != MPI && prim != NCCL {
		panic(fmt.Sprintf("comm: unknown primitive %d", prim))
	}
	k := f.K()
	c := &Collective{fabric: f, framed: f.Framed(), prim: prim, seed: seed, specs: specs, workers: make([]*worker, k), rounds: rounds(prim, k)}
	if ranks == nil {
		ranks = make([]int, k)
		for r := range ranks {
			ranks[r] = r
		}
	}
	for _, r := range ranks {
		if r < 0 || r >= k {
			panic(fmt.Sprintf("comm: local rank %d outside world of %d", r, k))
		}
		w := &worker{endpoint: endpoint{fabric: f, framed: c.framed}}
		for t, spec := range specs {
			w.tensors = append(w.tensors, c.compile(spec, t, r))
		}
		c.workers[r] = w
	}
	return c
}

// NewReduceBroadcast builds the MPI collective with encoder state for
// every rank. seed separates the stochastic quantisation streams of
// different experiments.
func NewReduceBroadcast(f Transport, specs []TensorSpec, seed uint64) *Collective {
	return NewCollective(f, MPI, specs, seed, nil)
}

// NewRing builds the full-precision NCCL collective for tensors it
// learns as they come: tensor i is whatever length its first Reduce
// brings, carried as 32bit.
func NewRing(f Transport) *Collective {
	return NewCollective(f, NCCL, nil, 0, nil)
}

// compile builds rank's schedule for tensor t.
func (c *Collective) compile(spec TensorSpec, t, rank int) compiled {
	k := c.fabric.K()
	ct := compiled{
		spec:      spec,
		chunks:    chunks(c.prim, spec, k),
		in:        newInbound(spec.Codec, spec.Wire),
		quantises: !isFP32(spec.Codec),
	}
	schedule(c.prim, ct.chunks, k, rank, func(st step) {
		var enc quant.Encoder
		if st.op == encodeSend {
			n, shape := ct.chunks[st.chunk].n, spec.Wire
			if c.prim == NCCL && !ct.quantises {
				shape = quant.Shape{Rows: 1, Cols: n} // a ring chunk of a 32bit tensor frames as a flat vector
			}
			enc = spec.Codec.NewEncoder(n, shape, mixSeed(c.seed, uint64(rank), uint64(t), st.slot))
		}
		ct.steps = append(ct.steps, st)
		ct.encs = append(ct.encs, enc)
	})
	ct.bounds = make([]int, c.rounds+1)
	i := 0
	for round := range ct.bounds {
		for i < len(ct.steps) && ct.steps[i].round < round {
			i++
		}
		ct.bounds[round] = i
	}
	return ct
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
func (c *Collective) Name() string {
	if c.prim == NCCL {
		return "nccl-ring"
	}
	return "mpi-rb"
}

// SetTracer makes Reduce and ReduceAll record per-tensor quantise (or,
// for 32bit, encode), transfer and decode spans. A nil tracer disables tracing
// again.
func (c *Collective) SetTracer(tr *obs.Tracer) { c.tracer = tr }

// BeginStep repositions every local stochastic encoder stream
// (quant.Reseeder — QSGD's stochastic rounding) to the seed derived
// from (experiment seed, rank, tensor, slot, step). An elastic trainer
// calls it on every rank before the step's exchange, making step
// s's draws a pure function of its coordinates rather than of the draw
// history (non-elastic runs keep the paper's cumulative streams): a
// replacement rank reconstructs the dead rank's streams, and a survivor
// rewinds an aborted half-step by re-entering it. Error-feedback
// residuals are data-dependent and not covered (see repro/elastic).
// Byte volumes do not depend on the draws.
func (c *Collective) BeginStep(step int64) {
	for rank, w := range c.workers {
		if w == nil {
			continue
		}
		for t := range w.tensors {
			ct := &w.tensors[t]
			for i, enc := range ct.encs {
				if r, ok := enc.(quant.Reseeder); ok {
					r.Reseed(mixSeed(c.seed, uint64(rank), uint64(t), ct.steps[i].slot, uint64(step)))
				}
			}
		}
	}
}

// WireBytesPerExchange returns the bytes one exchange of the
// collective's tensors puts on the fabric (see WireBytes); zero for a
// NewRing collective, which learns its tensors as they come.
func (c *Collective) WireBytesPerExchange() int64 {
	return WireBytes(c.prim, c.specs, c.fabric.K(), c.framed)
}

// Reduce implements Reducer: it runs rank's schedule for the tensor.
// After it returns on every rank, all hold bit-identical values: each
// chunk's final value is encoded once, by its owner, and every rank —
// the owner included — decodes those same bytes. It is ReduceAll's
// executor on one tensor.
func (c *Collective) Reduce(rank, tensorID int, g []float32) error {
	if err := c.check(tensorID, g); err != nil {
		return err
	}
	w, err := c.local(rank)
	if w == nil {
		return err
	}
	w.one[0] = g
	err = c.exchange(w, rank, tensorID, w.one[:])
	w.one[0] = nil
	return err
}

// ReduceAll reduces tensors 0, 1, …, len(gs)−1 for rank, gs[t] holding
// tensor t, as one exchange in round order (see "Order of messages" in
// the package documentation): a rank sends every tensor's messages of a
// round before it waits on any. Values, wire bytes and messages are
// exactly those of Reduce called on each tensor in turn. Every rank
// must pass the same tensors.
func (c *Collective) ReduceAll(rank int, gs [][]float32) error {
	for t, g := range gs {
		if err := c.check(t, g); err != nil {
			return err
		}
	}
	w, err := c.local(rank)
	if w == nil {
		return err
	}
	return c.exchange(w, rank, 0, gs)
}

// check rejects an unknown tensor and a gradient of the wrong length.
func (c *Collective) check(t int, g []float32) error {
	if t < 0 || c.specs != nil && t >= len(c.specs) {
		return fmt.Errorf("comm: unknown tensor %d", t)
	}
	if c.specs != nil && len(g) != c.specs[t].N {
		spec := c.specs[t]
		return fmt.Errorf("comm: tensor %s has %d elements, got %d", spec.Name, spec.N, len(g))
	}
	return nil
}

// local returns rank's state, or nil with no error when a world of one
// has nothing to exchange.
func (c *Collective) local(rank int) (*worker, error) {
	k := c.fabric.K()
	if k == 1 {
		return nil, nil
	}
	if rank < 0 || rank >= k || c.workers[rank] == nil {
		return nil, fmt.Errorf("comm: rank %d has no local %s state", rank, c.Name())
	}
	return c.workers[rank], nil
}

// window is the most tensors one pass of the executor interleaves: a
// link carries at most one message of a tensor per round, and a link a
// rank waits on holds at most two rounds' worth, so 2·window messages
// must fit every fabric's link queue (see "Order of messages").
const window = linkBuffer / 2

// exchange is the one executor: it runs rank's schedules for tensors
// first, first+1, … (gs[i] is tensor first+i) window by window, each
// window round by round, and within a round in tensor order. Each
// tensor's own steps keep their order, so its values, encoder streams
// and messages do not depend on the other tensors in the call.
func (c *Collective) exchange(w *worker, rank, first int, gs [][]float32) error {
	if c.specs == nil { // NewRing: compile the tensors as this call sizes them
		for len(w.tensors) < first+len(gs) {
			w.tensors = append(w.tensors, compiled{spec: TensorSpec{N: -1}})
		}
		for i, g := range gs {
			if w.tensors[first+i].spec.N != len(g) {
				w.tensors[first+i] = c.compile(fp32Spec(len(g)), first+i, rank)
			}
		}
	}
	k, tr := c.fabric.K(), c.tracer
	tensors := w.tensors[first : first+len(gs)]
	for i := range tensors {
		tensors[i].acc = spanAcc{}
	}
	start := tr.Now()
	for lo := 0; lo < len(gs); lo += window {
		hi := min(lo+window, len(gs))
		for round := 0; round < c.rounds; round++ {
			for t := lo; t < hi; t++ {
				ct, g := &tensors[t], gs[t]
				w.acc = &ct.acc
				for i := ct.bounds[round]; i < ct.bounds[round+1]; i++ {
					st := ct.steps[i]
					ch := ct.chunks[st.chunk]
					if err := w.run(tr, rank, k, ct, st, ct.encs[i], g[ch.off:ch.off+ch.n]); err != nil {
						return fmt.Errorf("comm: %s step %d of %s (chunk %d): %w", c.Name(), i, ct.spec.Name, st.chunk, err)
					}
				}
			}
		}
	}
	for i := range tensors {
		tensors[i].acc.record(tr, rank, tensors[i].spec.Name, start)
	}
	return nil
}

// run executes one step on vals, the rank's copy of the step's chunk.
func (w *worker) run(tr *obs.Tracer, rank, k int, ct *compiled, st step, enc quant.Encoder, vals []float32) error {
	switch st.op {
	case encodeSend:
		t0 := tr.Now()
		wire := enc.Encode(vals)
		if ct.quantises {
			w.acc.quantise += tr.Now() - t0
		} else {
			w.acc.encode += tr.Now() - t0
		}
		var header []byte
		if w.framed {
			header = enc.Header()
		}
		lo, hi := st.to, st.to+1
		if st.to == everyPeer {
			lo, hi = 0, k
		}
		for p := lo; p < hi; p++ {
			if p == rank {
				continue
			}
			if err := w.send(tr, header, rank, p, wire); err != nil {
				return fmt.Errorf("send to %d: %w", p, err)
			}
		}
		if st.adopt {
			t0 = tr.Now()
			err := ct.in.codec.Decode(wire, len(vals), ct.in.shape, vals)
			w.acc.decode += tr.Now() - t0
			if err != nil {
				return fmt.Errorf("decode own wire: %w", err)
			}
		}
	case recvAdd:
		if _, err := w.recv(tr, &ct.in, st.from, rank, vals, true); err != nil {
			return fmt.Errorf("from %d: %w", st.from, err)
		}
	case recvPlace:
		wire, err := w.recv(tr, &ct.in, st.from, rank, vals, false)
		if err != nil {
			return fmt.Errorf("from %d: %w", st.from, err)
		}
		if st.to != rank {
			if err := w.send(tr, nil, rank, st.to, wire); err != nil {
				return fmt.Errorf("relay to %d: %w", st.to, err)
			}
		}
	}
	return nil
}
