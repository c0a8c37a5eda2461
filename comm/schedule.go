package comm

import (
	"fmt"
	"strings"

	"repro/quant"
)

// Primitive selects the schedule a Collective runs: one of the two
// gradient-aggregation patterns the paper compares.
type Primitive int

const (
	// MPI is the reduce-and-broadcast pattern of §2.4.1, run as the
	// direct schedule.
	MPI Primitive = iota
	// NCCL is the ring allreduce of §2.4.2, run as the ring schedule.
	NCCL
)

// String names the primitive as the paper does.
func (p Primitive) String() string {
	if p == NCCL {
		return "NCCL"
	}
	return "MPI"
}

// ParsePrimitive maps a primitive name, case-insensitively, to its
// Primitive; the empty string means MPI.
func ParsePrimitive(s string) (Primitive, error) {
	switch strings.ToUpper(s) {
	case "", "MPI":
		return MPI, nil
	case "NCCL":
		return NCCL, nil
	}
	return MPI, fmt.Errorf("comm: unknown primitive %q", s)
}

// TensorSpec describes one gradient tensor to a Collective: its flat
// length, its CNTK wire shape (which fixes quantisation-group
// boundaries) and the codec that carries it.
type TensorSpec struct {
	Name  string
	N     int
	Wire  quant.Shape
	Codec quant.Codec
}

// chunk is a contiguous, group-aligned range of one tensor: the unit a
// schedule moves.
type chunk struct{ off, n int }

// chunks cuts a tensor into the k chunks prim's schedule moves, never
// tearing a quantisation group: the stripes of splitStripes for MPI,
// and for NCCL the ring's boundaries ⌊c·G/K⌋·group over the tensor's G
// groups. A 32bit tensor's ring groups are single elements, so its
// boundaries are ⌊c·n/K⌋.
func chunks(prim Primitive, spec TensorSpec, k int) []chunk {
	group := spec.Codec.GroupSize(spec.Wire)
	if prim == MPI {
		return splitStripes(spec.N, group, k)
	}
	if isFP32(spec.Codec) {
		group = 1
	}
	groups := (spec.N + group - 1) / group
	out := make([]chunk, k)
	for c := range out {
		lo, hi := min(spec.N, c*groups/k*group), min(spec.N, (c+1)*groups/k*group)
		out[c] = chunk{off: lo, n: hi - lo}
	}
	return out
}

// splitStripes partitions n elements into k stripes aligned to group
// boundaries, as the paper's "model of dimension n is split into n/K
// consecutive ranges" with the constraint that a quantisation group is
// never torn across owners.
func splitStripes(n, group, k int) []chunk {
	groups := (n + group - 1) / group
	out := make([]chunk, k)
	prev := 0
	for i := 0; i < k; i++ {
		// Even split of groups with remainder spread over the first few.
		g := groups / k
		if i < groups%k {
			g++
		}
		end := min(prev+g*group, n)
		out[i] = chunk{off: prev, n: end - prev}
		prev = end
	}
	return out
}

func isFP32(c quant.Codec) bool {
	_, ok := c.(quant.FP32)
	return ok
}

// op is what one step of a schedule does.
type op uint8

const (
	// encodeSend encodes the chunk with the step's encoder and sends the
	// wire to `to` — to every other rank when `to` is everyPeer, to no one
	// when it is the executing rank. With adopt set the rank then decodes
	// its own wire into the chunk, so it holds exactly what its
	// receivers decode.
	encodeSend op = iota
	// recvAdd receives the chunk from `from` and adds its decoded values
	// into the rank's copy (quant.Codec.DecodeAdd).
	recvAdd
	// recvPlace receives the chunk from `from` and decodes it into place;
	// unless `to` is the executing rank, the received bytes then travel
	// on to `to` verbatim.
	recvPlace
)

// everyPeer addresses an encodeSend to every other rank.
const everyPeer = -1

// aggSlot is the seed slot of the encoder with which a chunk's owner
// encodes the finished chunk — outside any chunk index, so that stream
// never collides with a contribution's.
const aggSlot = 1 << 32

// step is one entry of a rank's schedule for one tensor.
type step struct {
	op       op
	adopt    bool
	chunk    int
	from, to int
	// round places the step in the exchange's global order (see "Order
	// of messages" in the package documentation): every message sent in
	// round ρ is received in round ρ+1, and a rank's steps of one tensor
	// come in nondecreasing round order.
	round int
	// slot keys an encodeSend's encoder: its seed derives from
	// (experiment seed, rank, tensor, slot).
	slot uint64
}

// rounds returns how many rounds prim's schedule spans on k ≥ 2 ranks.
func rounds(prim Primitive, k int) int {
	if prim == NCCL {
		return 3*k - 2
	}
	return 3
}

// schedule calls visit with every step rank performs, in order, to
// aggregate a tensor cut into chunks across k ≥ 2 ranks.
func schedule(prim Primitive, chunks []chunk, k, rank int, visit func(step)) {
	if prim == NCCL {
		ring(chunks, k, rank, visit)
	} else {
		direct(chunks, k, rank, visit)
	}
}

// direct is reduce-and-broadcast: every rank encodes each stripe of its
// gradient and sends it to the stripe's owner, keeping (decoded) the
// stripe it owns; the owner adds the other K−1 contributions in rank
// order, encodes the sum once, broadcasts it and adopts it; every rank
// places the other owners' broadcasts. Empty stripes travel nowhere.
// The three phases are its three rounds.
func direct(chunks []chunk, k, rank int, visit func(step)) {
	for o, c := range chunks {
		if c.n > 0 {
			visit(step{op: encodeSend, chunk: o, to: o, slot: uint64(o), adopt: o == rank})
		}
	}
	if chunks[rank].n > 0 {
		for p := 0; p < k; p++ {
			if p != rank {
				visit(step{op: recvAdd, chunk: rank, from: p, round: 1})
			}
		}
		visit(step{op: encodeSend, chunk: rank, to: everyPeer, slot: aggSlot, adopt: true, round: 1})
	}
	for o, c := range chunks {
		if o != rank && c.n > 0 {
			visit(step{op: recvPlace, chunk: o, from: o, to: rank, round: 2})
		}
	}
}

// ring is the ring allreduce. Reduce-scatter: for K−1 hops each rank
// encodes its partial sum of chunk rank−s, sends it right, and adds the
// left neighbour's partial of chunk rank−s−1 into its own; rank then
// owns chunk rank+1 complete, encodes it once, adopts it and sends it
// right. All-gather: for K−1 hops each rank places the chunk arriving
// from the left and relays the same bytes right, except on the last hop.
// Every chunk travels, empty ones as bare frames. A reduce-scatter hop
// is two rounds, its send and its receive; the owner's send is one, and
// so is each all-gather hop.
func ring(chunks []chunk, k, rank int, visit func(step)) {
	right, left := (rank+1)%k, (rank+k-1)%k
	at := func(c int) int { return (c%k + k) % k }
	for s := 0; s < k-1; s++ {
		c := at(rank - s)
		visit(step{op: encodeSend, chunk: c, to: right, slot: uint64(c), round: 2 * s})
		visit(step{op: recvAdd, chunk: at(rank - s - 1), from: left, round: 2*s + 1})
	}
	visit(step{op: encodeSend, chunk: at(rank + 1), to: right, slot: aggSlot, adopt: true, round: 2*k - 2})
	for s := 0; s < k-1; s++ {
		relay := right
		if s == k-2 {
			relay = rank
		}
		visit(step{op: recvPlace, chunk: at(rank - s), from: left, to: relay, round: 2*k - 1 + s})
	}
}

// WireBytes predicts the bytes one exchange of the given tensors puts on
// a k-rank fabric under prim, without building a Collective. Both
// schedules carry every chunk they move across 2(K−1) links — K−1 hops
// toward its owner, K−1 away from it — as one message of the codec's
// encoded size, plus the self-describing frame header when framed (the
// overhead a TCP byte counter measures). The performance simulator
// prices exchanges through this function, so simulated and measured
// volumes agree byte for byte; TestScheduleMatchesOracle holds it to
// the schedules' own sends.
func WireBytes(prim Primitive, specs []TensorSpec, k int, framed bool) int64 {
	var total int64
	for _, spec := range specs {
		overhead := 0
		if framed {
			overhead = quant.FrameOverhead(spec.Codec.Name())
		}
		for _, c := range chunks(prim, spec, k) {
			if c.n > 0 || prim == NCCL {
				total += int64(2*(k-1)) * int64(spec.Codec.EncodedBytes(c.n, spec.Wire)+overhead)
			}
		}
	}
	return total
}

// ReduceBroadcastWireBytes is WireBytes for MPI.
func ReduceBroadcastWireBytes(specs []TensorSpec, k int, framed bool) int64 {
	return WireBytes(MPI, specs, k, framed)
}

// RingWireBytes is WireBytes for one full-precision tensor of n values
// under NCCL — what a NewRing exchange of it moves.
func RingWireBytes(n, k int, framed bool) int64 {
	return WireBytes(NCCL, []TensorSpec{fp32Spec(n)}, k, framed)
}

// fp32Spec describes an n-value tensor carried at full precision.
func fp32Spec(n int) TensorSpec {
	return TensorSpec{Name: "ring", N: n, Wire: quant.Shape{Rows: n, Cols: 1}, Codec: quant.FP32{}}
}
