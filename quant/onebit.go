package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/tensor"
)

// OneBit is CNTK's classic 1bitSGD codec (Seide et al., 2014; paper §2.2
// and §3.2.1). Each matrix column is quantised independently: after
// adding the error-feedback residual from the previous round, every
// component is replaced by the mean of the column's non-negative values
// (avg+) or the mean of its negative values (avg−) according to its sign.
// The residual ε ← v − q is carried to the next round; this error
// correction is what lets a single bit per coordinate preserve accuracy.
//
// Wire layout per column of height h:
//
//	float32 avg+ | float32 avg− | ⌈h/32⌉ × uint32 sign bits
//
// Because the column height equals the tensor's first dimension, a 3-wide
// convolution kernel yields columns of height 3: two floats of scale
// overhead per 3 values, i.e. no compression at all, plus per-column
// kernel cost. That artefact — classic 1bitSGD being slower than full
// precision on heavily convolutional networks — is one of the paper's
// headline observations, and the reshaped variant below is its fix.
type OneBit struct{}

// Name implements Codec.
func (OneBit) Name() string { return "1bit" }

// GroupSize implements Codec: the column height.
func (OneBit) GroupSize(shape Shape) int {
	if shape.Rows <= 0 {
		return 1
	}
	return shape.Rows
}

// EncodedBytes implements Codec.
func (o OneBit) EncodedBytes(n int, shape Shape) int {
	return oneBitBytes(n, o.GroupSize(shape))
}

// NewEncoder implements Codec.
func (o OneBit) NewEncoder(n int, shape Shape, _ uint64) Encoder {
	return newOneBitEncoder(n, o.GroupSize(shape), newFramer(o, n, shape))
}

// Decode implements Codec.
func (o OneBit) Decode(wire []byte, n int, shape Shape, dst []float32) error {
	return oneBitDecode(wire, n, o.GroupSize(shape), dst, false)
}

// DecodeAdd implements Codec.
func (o OneBit) DecodeAdd(wire []byte, n int, shape Shape, acc []float32) error {
	return oneBitDecode(wire, n, o.GroupSize(shape), acc, true)
}

// OneBitReshaped is the paper's 1bitSGD* variant (§3.2 "Reshaped
// 1bitSGD"): the tensor is flattened and re-cut into buckets of a fixed
// size before column-wise 1-bit quantisation, so scale overhead and
// kernel-launch cost no longer depend on the network's tensor shapes.
// The paper tunes the bucket to 64 for accuracy parity with full
// precision.
type OneBitReshaped struct {
	bucket int
}

// NewOneBitReshaped returns a reshaped 1bitSGD codec with the given
// bucket size. It panics if bucket is not positive.
func NewOneBitReshaped(bucket int) OneBitReshaped {
	if bucket <= 0 {
		panic("quant: OneBitReshaped bucket must be positive")
	}
	return OneBitReshaped{bucket: bucket}
}

// Bucket returns the configured bucket size.
func (o OneBitReshaped) Bucket() int { return o.bucket }

// Name implements Codec.
func (o OneBitReshaped) Name() string { return fmt.Sprintf("1bit*%d", o.bucket) }

// GroupSize implements Codec: the bucket size, independent of shape.
func (o OneBitReshaped) GroupSize(Shape) int { return o.bucket }

// EncodedBytes implements Codec.
func (o OneBitReshaped) EncodedBytes(n int, _ Shape) int {
	return oneBitBytes(n, o.bucket)
}

// NewEncoder implements Codec.
func (o OneBitReshaped) NewEncoder(n int, shape Shape, _ uint64) Encoder {
	return newOneBitEncoder(n, o.bucket, newFramer(o, n, shape))
}

// Decode implements Codec.
func (o OneBitReshaped) Decode(wire []byte, n int, _ Shape, dst []float32) error {
	return oneBitDecode(wire, n, o.bucket, dst, false)
}

// DecodeAdd implements Codec.
func (o OneBitReshaped) DecodeAdd(wire []byte, n int, _ Shape, acc []float32) error {
	return oneBitDecode(wire, n, o.bucket, acc, true)
}

// oneBitBytes returns the wire size of n elements cut into groups of g.
func oneBitBytes(n, g int) int {
	if n == 0 {
		return 0
	}
	full := n / g
	bytes := full * (8 + 4*words32(g))
	if rem := n % g; rem > 0 {
		bytes += 8 + 4*words32(rem)
	}
	return bytes
}

type oneBitEncoder struct {
	n, g     int
	residual []float32 // error-feedback state ε, one entry per element
	work     []float32 // v + ε for the current group
	buf      []byte
	framer
}

func newOneBitEncoder(n, g int, fr framer) *oneBitEncoder {
	return &oneBitEncoder{
		n:        n,
		g:        g,
		residual: make([]float32, n),
		work:     make([]float32, g),
		buf:      make([]byte, oneBitBytes(n, g)),
		framer:   fr,
	}
}

// Encode implements Encoder. It realises Algorithm 2 of the paper:
// v ← v + ε; q_i ← avg+ if v_i ≥ 0 else avg−; ε_i ← v_i − q_i.
func (e *oneBitEncoder) Encode(src []float32) []byte {
	if len(src) != e.n {
		panic(fmt.Sprintf("quant: 1bit encoder got %d values, want %d", len(src), e.n))
	}
	off := 0
	for start := 0; start < e.n; start += e.g {
		end := start + e.g
		if end > e.n {
			end = e.n
		}
		c := end - start
		work := e.work[:c]
		res := e.residual[start:end]
		var sumPos, sumNeg float64
		var nPos, nNeg int
		for i := 0; i < c; i++ {
			v := src[start+i] + res[i]
			work[i] = v
			if v >= 0 {
				sumPos += float64(v)
				nPos++
			} else {
				sumNeg += float64(v)
				nNeg++
			}
		}
		var avgPos, avgNeg float32
		if nPos > 0 {
			avgPos = float32(sumPos / float64(nPos))
		}
		if nNeg > 0 {
			avgNeg = float32(sumNeg / float64(nNeg))
		}
		binary.LittleEndian.PutUint32(e.buf[off:], math.Float32bits(avgPos))
		binary.LittleEndian.PutUint32(e.buf[off+4:], math.Float32bits(avgNeg))
		off += 8
		nw := words32(c)
		// Zero the bit words, then set sign bits and update residuals.
		for w := 0; w < nw; w++ {
			binary.LittleEndian.PutUint32(e.buf[off+4*w:], 0)
		}
		var word uint32
		for i := 0; i < c; i++ {
			var q float32
			if work[i] >= 0 {
				word |= 1 << (uint(i) & 31)
				q = avgPos
			} else {
				q = avgNeg
			}
			res[i] = work[i] - q
			if (uint(i)&31) == 31 || i == c-1 {
				binary.LittleEndian.PutUint32(e.buf[off+4*(i>>5):], word)
				word = 0
			}
		}
		off += 4 * nw
	}
	return e.buf
}

// EncodeTo implements Encoder.
func (e *oneBitEncoder) EncodeTo(w io.Writer, src []float32) (int, error) {
	return e.encodeTo(w, e.Encode(src))
}

// oneBitDecode unpacks a 1bitSGD wire buffer into dst, or with add set
// adds it to dst: a run of at most addChunk values at a time, decoded on
// the stack and added with tensor.Add.
func oneBitDecode(wire []byte, n, g int, dst []float32, add bool) error {
	want := oneBitBytes(n, g)
	if len(wire) != want {
		return fmt.Errorf("quant: 1bit wire length %d, want %d", len(wire), want)
	}
	if len(dst) != n {
		return fmt.Errorf("quant: 1bit dst length %d, want %d", len(dst), n)
	}
	var vals [addChunk]float32
	off := 0
	for start := 0; start < n; start += g {
		end := start + g
		if end > n {
			end = n
		}
		c := end - start
		avgPos := math.Float32frombits(binary.LittleEndian.Uint32(wire[off:]))
		avgNeg := math.Float32frombits(binary.LittleEndian.Uint32(wire[off+4:]))
		off += 8
		for lo := 0; lo < c; lo += addChunk {
			out := dst[start+lo : start+min(lo+addChunk, c)]
			dec := out
			if add {
				dec = vals[:len(out)]
			}
			for i := range dec {
				j := lo + i
				if binary.LittleEndian.Uint32(wire[off+4*(j>>5):])&(1<<(uint(j)&31)) != 0 {
					dec[i] = avgPos
				} else {
					dec[i] = avgNeg
				}
			}
			if add {
				tensor.Add(out, dec)
			}
		}
		off += 4 * words32(c)
	}
	return nil
}
