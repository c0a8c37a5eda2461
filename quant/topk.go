package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/tensor"
)

// TopK is the sparse-communication scheme the paper's related-work
// section discusses (Aji & Heafield, EMNLP 2017): only the largest-
// magnitude density·n gradient components are transmitted, at full
// precision together with their indices, and the untransmitted
// remainder accumulates locally in an error-feedback residual.
//
// The paper did not adopt it — "due to the extra cost of transmitting
// indices, it is not clear that the reduction in communication is
// sufficient", and dense collectives cannot carry it — so this codec is
// provided as the study's natural extension point: it exposes exactly
// that index overhead through its wire format (8 bytes per surviving
// component against 4 for a dense value).
//
// Wire layout for a segment of n values with k = ⌈density·n⌉:
//
//	uint32 k | k × uint32 index | k × float32 value
type TopK struct {
	// density is the fraction of components transmitted, in (0, 1].
	density float64
}

// NewTopK returns a top-k codec transmitting the given fraction of
// components. It panics unless 0 < density ≤ 1 (NaN included).
func NewTopK(density float64) TopK {
	if !(density > 0 && density <= 1) {
		panic(fmt.Sprintf("quant: TopK density %v outside (0,1]", density))
	}
	return TopK{density: density}
}

// Density returns the transmitted fraction.
func (t TopK) Density() float64 { return t.density }

// Name implements Codec.
func (t TopK) Name() string { return fmt.Sprintf("topk%g", t.density) }

// GroupSize implements Codec. Selection is per segment, so any stripe
// boundary is legal; a moderate group keeps stripe arithmetic cheap.
func (t TopK) GroupSize(Shape) int { return 256 }

// keep returns k for a segment of n values.
func (t TopK) keep(n int) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(t.density * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// EncodedBytes implements Codec.
func (t TopK) EncodedBytes(n int, _ Shape) int {
	if n == 0 {
		return 0
	}
	return 4 + 8*t.keep(n)
}

// NewEncoder implements Codec.
func (t TopK) NewEncoder(n int, shape Shape, _ uint64) Encoder {
	return &topKEncoder{
		t:        t,
		n:        n,
		residual: make([]float32, n),
		work:     make([]float32, n),
		order:    make([]int32, n),
		buf:      make([]byte, t.EncodedBytes(n, shape)),
		framer:   newFramer(t, n, shape),
	}
}

type topKEncoder struct {
	t        TopK
	n        int
	residual []float32
	work     []float32
	order    []int32
	buf      []byte
	framer
}

// Encode implements Encoder: e ← v + ε; transmit the k components of e
// with the largest magnitude (ties broken towards lower indices for
// determinism); ε ← e on the untransmitted coordinates, 0 on the
// transmitted ones.
func (e *topKEncoder) Encode(src []float32) []byte {
	if len(src) != e.n {
		panic(fmt.Sprintf("quant: topk encoder got %d values, want %d", len(src), e.n))
	}
	if e.n == 0 {
		return e.buf[:0]
	}
	for i, v := range src {
		e.work[i] = v + e.residual[i]
		e.order[i] = int32(i)
	}
	k := e.t.keep(e.n)
	selectTopK(e.order, e.work, k)
	// The first k entries of order now index the winners; sort them so
	// the wire format is canonical and decoding is cache-friendly.
	winners := e.order[:k]
	insertionSortInt32(winners)

	binary.LittleEndian.PutUint32(e.buf, uint32(k))
	off := 4
	for _, idx := range winners {
		binary.LittleEndian.PutUint32(e.buf[off:], uint32(idx))
		off += 4
	}
	copy(e.residual, e.work) // keep everything ...
	for _, idx := range winners {
		binary.LittleEndian.PutUint32(e.buf[off:], math.Float32bits(e.work[idx]))
		off += 4
		e.residual[idx] = 0 // ... except what was sent
	}
	return e.buf
}

// EncodeTo implements Encoder.
func (e *topKEncoder) EncodeTo(w io.Writer, src []float32) (int, error) {
	return e.encodeTo(w, e.Encode(src))
}

// Decode implements Codec.
func (t TopK) Decode(wire []byte, n int, shape Shape, dst []float32) error {
	k, err := t.header(wire, n, shape, dst)
	if err != nil {
		return err
	}
	clear(dst)
	prev := -1
	for i := 0; i < k; i++ {
		idx, ok := topKIndex(wire, i, n, prev)
		if !ok {
			return topKIndexError(idx, n, prev)
		}
		dst[idx] = topKValue(wire, k, i)
		prev = idx
	}
	return nil
}

// DecodeAdd implements Codec: every index is checked before acc
// changes, then Decode and tensor.Add run on a run of addChunk elements
// at a time, on the stack. The unselected elements thus get +0 added,
// as Decode's zeros would: a −0 becomes +0 and a signalling NaN is
// quietened.
func (t TopK) DecodeAdd(wire []byte, n int, shape Shape, acc []float32) error {
	k, err := t.header(wire, n, shape, acc)
	if err != nil {
		return err
	}
	prev := -1
	for i := 0; i < k; i++ {
		idx, ok := topKIndex(wire, i, n, prev)
		if !ok {
			return topKIndexError(idx, n, prev)
		}
		prev = idx
	}
	var vals [addChunk]float32
	next := 0 // the next selected entry
	for lo := 0; lo < n; lo += addChunk {
		dec := vals[:min(addChunk, n-lo)]
		clear(dec)
		for ; next < k; next++ {
			idx, _ := topKIndex(wire, next, n, -1)
			if idx >= lo+len(dec) {
				break
			}
			dec[idx-lo] = topKValue(wire, k, next)
		}
		tensor.Add(acc[lo:lo+len(dec)], dec)
	}
	return nil
}

// header checks a payload's length and its k for n elements into dst,
// and returns k.
func (t TopK) header(wire []byte, n int, shape Shape, dst []float32) (int, error) {
	want := t.EncodedBytes(n, shape)
	if len(wire) != want {
		return 0, fmt.Errorf("quant: topk wire length %d, want %d", len(wire), want)
	}
	if len(dst) != n {
		return 0, fmt.Errorf("quant: topk dst length %d, want %d", len(dst), n)
	}
	if n == 0 {
		return 0, nil
	}
	k := int(binary.LittleEndian.Uint32(wire))
	if k != t.keep(n) {
		return 0, fmt.Errorf("quant: topk header k=%d, want %d", k, t.keep(n))
	}
	return k, nil
}

// topKIndex returns the payload's i-th index and whether it lies below
// n and above the previous index prev. The encoder emits indices sorted
// strictly ascending; enforcing that rejects corrupted payloads with
// duplicate indices instead of silently decoding wrong values.
func topKIndex(wire []byte, i, n, prev int) (int, bool) {
	idx := int(binary.LittleEndian.Uint32(wire[4+4*i:]))
	return idx, idx < n && idx > prev
}

// topKIndexError is the error of an index topKIndex refused.
func topKIndexError(idx, n, prev int) error {
	if idx >= n {
		return fmt.Errorf("quant: topk index %d out of range %d", idx, n)
	}
	return fmt.Errorf("quant: topk indices not strictly ascending (%d after %d)", idx, prev)
}

// topKValue returns the i-th value of a payload of k.
func topKValue(wire []byte, k, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(wire[4+4*k+4*i:]))
}

// selectTopK partially orders order so that its first k entries index
// the k largest |vals| entries. It is a deterministic quickselect with
// median-of-three pivots; ties prefer lower indices.
func selectTopK(order []int32, vals []float32, k int) {
	lo, hi := 0, len(order)-1
	for lo < hi {
		p := partition(order, vals, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// greater reports whether index a outranks index b (larger magnitude,
// lower index on ties).
func greater(vals []float32, a, b int32) bool {
	av, bv := vals[a], vals[b]
	if av < 0 {
		av = -av
	}
	if bv < 0 {
		bv = -bv
	}
	if av != bv {
		return av > bv
	}
	return a < b
}

func partition(order []int32, vals []float32, lo, hi int) int {
	mid := lo + (hi-lo)/2
	// Median-of-three pivot for deterministic, adversary-resistant
	// behaviour on sorted inputs.
	if greater(vals, order[mid], order[lo]) {
		order[mid], order[lo] = order[lo], order[mid]
	}
	if greater(vals, order[hi], order[lo]) {
		order[hi], order[lo] = order[lo], order[hi]
	}
	if greater(vals, order[hi], order[mid]) {
		order[hi], order[mid] = order[mid], order[hi]
	}
	pivot := order[mid]
	order[mid], order[hi] = order[hi], order[mid]
	store := lo
	for i := lo; i < hi; i++ {
		if greater(vals, order[i], pivot) {
			order[i], order[store] = order[store], order[i]
			store++
		}
	}
	order[store], order[hi] = order[hi], order[store]
	return store
}

func insertionSortInt32(xs []int32) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
