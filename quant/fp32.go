package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/tensor"
)

// FP32 is the identity codec: gradients travel as raw little-endian
// float32 values. It is the paper's "32bit full precision" baseline and
// also the fallback used for small tensors under the exemption policy.
//
// On little-endian hosts the wire form of a float32 slice is its own
// memory, so Encode returns a byte view of the source and Decode is one
// copy; the element-by-element loops remain for big-endian hosts and as
// the reference the view is tested against.
type FP32 struct{}

// fp32View reports that a float32 slice's memory already is its wire
// encoding, decided once from the host's byte order.
var fp32View = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Name implements Codec.
func (FP32) Name() string { return "32bit" }

// GroupSize implements Codec. Full precision has no quantisation groups;
// a moderate chunk keeps stripe boundaries cheap to compute without
// fragmenting messages.
func (FP32) GroupSize(Shape) int { return 256 }

// EncodedBytes implements Codec.
func (FP32) EncodedBytes(n int, _ Shape) int { return 4 * n }

// NewEncoder implements Codec.
func (f FP32) NewEncoder(n int, shape Shape, _ uint64) Encoder {
	e := &fp32Encoder{n: n, framer: newFramer(f, n, shape)}
	if !fp32View {
		e.buf = make([]byte, 4*n)
	}
	return e
}

type fp32Encoder struct {
	buf []byte // encode target where the view does not apply
	n   int
	framer
}

// Encode implements Encoder. Where fp32View holds the result aliases
// src: it is valid until src is next written.
func (e *fp32Encoder) Encode(src []float32) []byte {
	if len(src) != e.n {
		panic(fmt.Sprintf("quant: fp32 encoder got %d values, want %d", len(src), e.n))
	}
	if fp32View {
		return fp32Bytes(src)
	}
	fp32Put(e.buf, src)
	return e.buf
}

// EncodeTo implements Encoder.
func (e *fp32Encoder) EncodeTo(w io.Writer, src []float32) (int, error) {
	return e.encodeTo(w, e.Encode(src))
}

// Decode implements Codec.
func (FP32) Decode(wire []byte, n int, _ Shape, dst []float32) error {
	if len(wire) != 4*n {
		return fmt.Errorf("quant: fp32 wire length %d, want %d", len(wire), 4*n)
	}
	if len(dst) != n {
		return fmt.Errorf("quant: fp32 dst length %d, want %d", len(dst), n)
	}
	if fp32View {
		copy(fp32Bytes(dst), wire)
	} else {
		fp32Get(dst, wire)
	}
	return nil
}

// DecodeAdd implements Codec. Where fp32View holds the payload already
// is the float32 values, and tensor.Add adds them from it; the view may
// be unaligned, which loads on amd64 and arm64 permit. Elsewhere runs
// of addChunk values are decoded on the stack and added.
func (FP32) DecodeAdd(wire []byte, n int, _ Shape, acc []float32) error {
	if len(wire) != 4*n {
		return fmt.Errorf("quant: fp32 wire length %d, want %d", len(wire), 4*n)
	}
	if len(acc) != n {
		return fmt.Errorf("quant: fp32 acc length %d, want %d", len(acc), n)
	}
	if fp32View {
		if n > 0 { // an empty wire may point one past its allocation
			tensor.Add(acc, unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(wire))), n))
		}
		return nil
	}
	var vals [addChunk]float32
	for lo := 0; lo < n; lo += addChunk {
		dec := vals[:min(addChunk, n-lo)]
		fp32Get(dec, wire[4*lo:])
		tensor.Add(acc[lo:lo+len(dec)], dec)
	}
	return nil
}

// View returns the memory of v as its 32bit payload — what Encode
// returns and what Decode copies in — so a receiver can read a payload
// straight into a tensor. ok is false where the host's byte order makes
// the two differ; the payload must then be decoded.
func (FP32) View(v []float32) (payload []byte, ok bool) {
	if !fp32View {
		return nil, false
	}
	return fp32Bytes(v), true
}

// fp32Bytes views the memory of v as bytes.
func fp32Bytes(v []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// fp32Put writes src to dst as little-endian float32 values on any host.
func fp32Put(dst []byte, src []float32) {
	for i, v := range src {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
}

// fp32Get reads little-endian float32 values from wire on any host.
func fp32Get(dst []float32, wire []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(wire[4*i:]))
	}
}
