// Package quant implements the low-precision gradient codecs studied by
// the paper: full-precision (32-bit), 1bitSGD (Seide et al., Interspeech
// 2014) with error feedback, the bucket-reshaped 1bitSGD* variant the
// paper introduces, and QSGD (Alistarh et al., NIPS 2017) stochastic
// quantisation at 2/4/8/16 bits with tunable bucket sizes and
// normalisation.
//
// Every codec produces a real, bit-packed wire format whose exact byte
// length is exposed through EncodedBytes. The communication layer
// (repro/comm) moves these bytes, and the performance simulator
// (repro/sim) prices them; both therefore agree byte-for-byte on
// what low precision costs — which is the crux of the paper's
// performance study.
//
// # Quantisation groups
//
// Following CNTK, a gradient tensor is a matrix in column-major layout
// whose first tensor dimension is the "row" count and whose remaining
// dimensions are flattened into "columns". Classic 1bitSGD quantises each
// column independently; the paper's reshaped variants instead cut the
// flat vector into fixed-size buckets. Both are captured here by a
// codec-defined group size: a codec partitions a flat vector into
// consecutive groups of GroupSize elements (the final group may be
// shorter) and quantises each group independently. This also gives the
// aggregation layer natural stripe boundaries.
//
// # Names and frames
//
// Codecs are selected by name through the Parse grammar ("qsgd4b512",
// "1bit*64", "topk0.01", ...), which derives every parameter from the
// name and round-trips Codec.Name(). Each encoder can also emit a
// self-describing framed message (EncodeTo) carrying a versioned
// header — magic, format version, codec name, shape, element count —
// that DecodeAny reconstructs without any shared configuration; see
// frame.go.
//
// Products that feed an addition are rounded explicitly (float64(...))
// so that arm64 does not fuse them into an FMA: encoders must pick the
// same levels, and so put the same bytes on the wire, on every
// architecture (scripts/check_nofma.sh).
package quant

import (
	"fmt"
	"io"
)

// Shape describes a gradient tensor in CNTK layout: Rows is the first
// tensor dimension, Cols the product of the remaining dimensions. The
// flat data is column-major, so one column occupies Rows consecutive
// elements. For a 3×3 convolution kernel stored as [kW, kH·inC·outC],
// Rows is 3 — the pathological small-column case the paper's §3.2
// "Reshaped 1bitSGD" discussion revolves around.
type Shape struct {
	Rows, Cols int
}

// Len returns the number of elements.
func (s Shape) Len() int { return s.Rows * s.Cols }

// String renders the shape as RxC.
func (s Shape) String() string { return fmt.Sprintf("%dx%d", s.Rows, s.Cols) }

// Codec quantises flat float32 gradient vectors into compact wire bytes
// and back. Implementations are stateless and safe for concurrent use;
// per-tensor state (error-feedback residuals, RNG streams) lives in the
// Encoder values they mint.
type Codec interface {
	// Name returns a stable identifier such as "qsgd4b512" or "1bit".
	Name() string

	// GroupSize returns the quantisation group length for a tensor of the
	// given shape: the column height for column-wise codecs, the bucket
	// size for bucketed codecs. Group boundaries are also the only legal
	// stripe boundaries for range-partitioned aggregation.
	GroupSize(shape Shape) int

	// EncodedBytes returns the exact wire size for n contiguous elements
	// of a tensor with the given shape. n must start on a group boundary.
	EncodedBytes(n int, shape Shape) int

	// NewEncoder returns a stateful encoder for a fixed-length segment of
	// n elements of a tensor with the given shape. seed disambiguates
	// stochastic rounding streams between (worker, tensor, stripe)
	// triples; deterministic codecs ignore it.
	NewEncoder(n int, shape Shape, seed uint64) Encoder

	// Decode unpacks wire into dst (length n). It returns an error when
	// the wire buffer has the wrong length for (n, shape).
	Decode(wire []byte, n int, shape Shape, dst []float32) error

	// DecodeAdd adds the values wire decodes to into acc (length n):
	// acc[i] = acc[i] + decoded[i], every element's float bits equal to
	// those of Decode into a scratch vector followed by tensor.Add(acc,
	// scratch) — NaNs, signed zeros and infinities included, with acc
	// the addition's first operand. It allocates nothing. Where Decode
	// would return an error it returns one and leaves acc untouched.
	DecodeAdd(wire []byte, n int, shape Shape, acc []float32) error
}

// Encoder quantises one fixed-length gradient segment. Encoders carry the
// codec's per-tensor state: 1bitSGD's error-feedback residual and QSGD's
// random stream. Encoders are not safe for concurrent use.
type Encoder interface {
	// Encode quantises src (whose length was fixed at construction) and
	// returns the wire bytes: the headerless payload, which a peer that
	// knows the (codec, n, shape) triple decodes with Codec.Decode. The
	// returned buffer is owned by the encoder and reused across calls;
	// callers that retain it must copy. The "32bit" codec may instead
	// return a view of src itself (on little-endian hosts a float32
	// slice already is its wire form), valid until src is next written.
	Encode(src []float32) []byte

	// Header returns the encoder's frame header: Header followed by the
	// Encode payload is one self-describing frame. An encoder is bound
	// to one (codec, n, shape) triple, so the header is a constant,
	// shared and read-only.
	Header() []byte

	// EncodeTo quantises src and writes one self-describing frame —
	// Header plus the Encode payload — to w in a single Write, advancing
	// any error-feedback or RNG state exactly as one Encode call would.
	// The frame decodes with DecodeAny or DecodeFramed on a peer that
	// shares no configuration. It reports the bytes written.
	EncodeTo(w io.Writer, src []float32) (int, error)
}

// Reseeder is implemented by encoders whose only mutable state is a
// stochastic-rounding RNG stream (QSGD's). Reseed repositions that
// stream, which lets the aggregation layer key the stream to the
// training step: when every encoder is reseeded with a seed derived
// from (experiment seed, rank, tensor, stripe, step) at each step
// boundary, a rank's stochastic state becomes a pure function of those
// coordinates — reconstructible by a replacement process after a
// crash, and rewindable on a survivor whose aborted half-step consumed
// draws the uninterrupted run never would have. Error-feedback codecs
// (1bitSGD, top-k) carry data-dependent residuals and deliberately do
// not implement it.
type Reseeder interface {
	// Reseed repositions the encoder's random stream as if it had just
	// been built with NewEncoder(..., seed).
	Reseed(seed uint64)
}

// addChunk is how many decoded values the OneBit and TopK DecodeAdd
// stage on the stack for one tensor.Add. Every addition of DecodeAdd
// runs in tensor.Add or, on AVX2, in a QSGD kernel with the same
// operand order, which is what keeps its bits those of Decode followed
// by tensor.Add.
const addChunk = 256

// words32 returns how many uint32 words hold nBits bits.
func words32(nBits int) int { return (nBits + 31) / 32 }

// CompressionRatio returns raw float32 bytes divided by encoded bytes for
// a whole tensor of the given shape under codec c. Ratios below 1 mean
// the codec *expands* the tensor — which really happens for classic
// 1bitSGD on small-row convolution kernels (paper §3.2).
func CompressionRatio(c Codec, shape Shape) float64 {
	n := shape.Len()
	if n == 0 {
		return 1
	}
	enc := c.EncodedBytes(n, shape)
	if enc == 0 {
		return 1
	}
	return float64(4*n) / float64(enc)
}

// PaperCodecs returns the precision ladder the paper sweeps in its
// performance figures, in presentation order: 32bit, Q16, Q8, Q4, Q2,
// 1bitSGD* and 1bitSGD.
func PaperCodecs() []Codec {
	return []Codec{
		FP32{},
		NewQSGD(16, 8192, MaxNorm),
		NewQSGD(8, 512, MaxNorm),
		NewQSGD(4, 512, MaxNorm),
		NewQSGD(2, 128, MaxNorm),
		NewOneBitReshaped(64),
		OneBit{},
	}
}

// ExtensionCodecs returns the variants beyond the paper's main ladder:
// the alternative QSGD normalisation and level schemes it describes in
// §3.2.2, and the sparse top-k scheme its related-work section
// discusses.
func ExtensionCodecs() []Codec {
	return []Codec{
		NewQSGD(4, 512, TwoNorm),
		NewQSGDScheme(4, 512, MaxNorm, Uniform),
		NewQSGDScheme(4, 512, MaxNorm, Exponential),
		NewTopK(0.01),
		NewTopK(0.001),
	}
}
