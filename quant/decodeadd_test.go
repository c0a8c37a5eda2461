package quant

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/rng"
	"repro/tensor"
)

// DecodeAdd against Decode into scratch followed by tensor.Add, on
// float bits: NaN payloads included, since the accumulator is the first
// operand of every addition on both sides.

// decodeAddSpecials are the float bits planted among accumulators and
// wire words: NaNs of distinct signs and payloads (one signalling), both
// infinities, both zeros, a denormal and 1.
var decodeAddSpecials = []uint32{
	0x7fc00001, 0xffc12345, 0x7fa00000, 0x7f800000, 0xff800000,
	0x00000000, 0x80000000, 0x00000001, 0x3f800000,
}

// specialWords returns n float bits, Gaussian with probability 3/4 and
// one of decodeAddSpecials otherwise.
func specialWords(r *rng.RNG, n int) []uint32 {
	w := make([]uint32, n)
	for i := range w {
		w[i] = math.Float32bits(r.Norm(1))
		if r.Intn(4) == 0 {
			w[i] = decodeAddSpecials[r.Intn(len(decodeAddSpecials))]
		}
	}
	return w
}

// arbitraryWire returns a payload of c for n elements: random bytes with
// one in eight 4-byte words (so scales among them) a special float. For
// top-k the header and the indices are made valid, so that the values
// are decoded rather than the payload refused.
func arbitraryWire(r *rng.RNG, c Codec, n int, shape Shape) []byte {
	wire := make([]byte, c.EncodedBytes(n, shape))
	for i := range wire {
		wire[i] = byte(r.Uint32())
	}
	for i := 0; i+4 <= len(wire); i += 4 {
		if r.Intn(8) == 0 {
			binary.LittleEndian.PutUint32(wire[i:], decodeAddSpecials[r.Intn(len(decodeAddSpecials))])
		}
	}
	if t, ok := c.(TopK); ok && n > 0 {
		k := t.keep(n)
		idx := r.Perm(n)[:k]
		sort.Ints(idx)
		binary.LittleEndian.PutUint32(wire, uint32(k))
		for i, v := range idx {
			binary.LittleEndian.PutUint32(wire[4+4*i:], uint32(v))
		}
	}
	return wire
}

// assertDecodeAdd runs DecodeAdd on a copy of acc and Decode plus
// tensor.Add on another, and fails unless both return an error or
// neither does and the results are bit-equal; on an error DecodeAdd
// must leave acc as it was.
func assertDecodeAdd(t *testing.T, c Codec, wire []byte, n int, shape Shape, acc []float32) {
	t.Helper()
	want := slices.Clone(acc)
	scratch := make([]float32, n)
	decErr := c.Decode(wire, n, shape, scratch)
	if decErr == nil {
		tensor.Add(want, scratch)
	}
	got := slices.Clone(acc)
	addErr := c.DecodeAdd(wire, n, shape, got)
	if (decErr == nil) != (addErr == nil) {
		t.Fatalf("%s n=%d: Decode error %v, DecodeAdd error %v", c.Name(), n, decErr, addErr)
	}
	if addErr != nil {
		want = acc // untouched
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s n=%d shape %s: element %d is %#x after DecodeAdd, %#x after Decode+Add (acc %#x, err %v)",
				c.Name(), n, shape, i, math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(acc[i]), addErr)
		}
	}
}

// decodeAddShapes are tensor shapes whose columns (1bit) and lengths
// against every bucket give single, ragged and multi-group payloads.
var decodeAddShapes = []Shape{{1, 1}, {3, 7}, {17, 31}, {64, 33}, {1, 1000}, {256, 9}}

// TestDecodeAddMatchesDecodeThenAdd holds every codec of the paper's
// ladder and of the extensions to Decode+tensor.Add on arbitrary wire —
// NaN and Inf scales, codes no encoder emits — into accumulators
// seeded with −0, ±Inf and NaNs, on both paths; plus wire of the wrong
// length, which must fail and leave the accumulator alone.
func TestDecodeAddMatchesDecodeThenAdd(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		r := rng.New(11)
		for _, c := range slices.Concat(PaperCodecs(), ExtensionCodecs()) {
			for _, shape := range decodeAddShapes {
				n := shape.Len()
				for round := 0; round < 3; round++ {
					acc := make([]float32, n)
					for i, w := range specialWords(r, n) {
						acc[i] = math.Float32frombits(w)
					}
					wire := arbitraryWire(r, c, n, shape)
					assertDecodeAdd(t, c, wire, n, shape, acc)
					if round == 0 {
						assertDecodeAdd(t, c, wire[:len(wire)-1], n, shape, acc)
						assertDecodeAdd(t, c, append(wire, 0), n, shape, acc)
					}
				}
			}
		}
	})
}

// TestDecodeAddKeepsAccumulatorNaN: where both the accumulator and the
// decoded value are NaNs, the accumulator's (quietened) survives, as in
// tensor.Add. Every scale is a NaN, so every decoded value is one, and
// every accumulator element is a NaN of another payload; both paths,
// every QSGD width and scheme at table and table-less buckets.
func TestDecodeAddKeepsAccumulatorNaN(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		r := rng.New(12)
		for _, bits := range kernelBits {
			for _, scheme := range kernelSchemes {
				for _, bucket := range []int{16, 64, 512} {
					q := NewQSGDScheme(bits, bucket, MaxNorm, scheme)
					n := 2*bucket + 13
					shape := Shape{Rows: 1, Cols: n}
					wire := arbitraryWire(r, q, n, shape)
					for off := 0; off < len(wire); off += 4 + 4*words32(bucket*bits) {
						binary.LittleEndian.PutUint32(wire[off:], 0xffc0beef)
					}
					acc := make([]float32, n)
					for i := range acc {
						acc[i] = math.Float32frombits(0x7fc00000 | uint32(i+1))
					}
					assertDecodeAdd(t, q, wire, n, shape, acc)
				}
			}
		}
	})
}

// TestFrameDecoderDecodeAdd: a frame decodes-and-adds to what
// FrameDecoder.Decode plus tensor.Add give, and a frame for another
// element count fails with the accumulator untouched.
func TestFrameDecoderDecodeAdd(t *testing.T) {
	r := rng.New(13)
	for _, c := range slices.Concat(PaperCodecs(), ExtensionCodecs()) {
		shape := Shape{Rows: 17, Cols: 31}
		n := shape.Len()
		var buf bytes.Buffer
		if _, err := c.NewEncoder(n, shape, 1).EncodeTo(&buf, randVec(r, n)); err != nil {
			t.Fatal(err)
		}
		acc := randVec(r, n)
		var fd FrameDecoder
		dec := make([]float32, n)
		if _, err := fd.Decode(buf.Bytes(), dec); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		want := slices.Clone(acc)
		tensor.Add(want, dec)
		got := slices.Clone(acc)
		h, err := fd.DecodeAdd(buf.Bytes(), got)
		if err != nil || h.N != n || h.Codec != c.Name() {
			t.Fatalf("%s: DecodeAdd header %+v, error %v", c.Name(), h, err)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: element %d is %v after DecodeAdd, %v after Decode+Add", c.Name(), i, got[i], want[i])
			}
		}
		short := slices.Clone(acc[:n-1])
		if _, err := fd.DecodeAdd(buf.Bytes(), short); err == nil || !slices.Equal(short, acc[:n-1]) {
			t.Fatalf("%s: DecodeAdd into %d of %d elements: error %v, accumulator changed %v", c.Name(), n-1, n, err, !slices.Equal(short, acc[:n-1]))
		}
	}
}

// TestDecodeAddAllocs: DecodeAdd allocates nothing, on any codec.
func TestDecodeAddAllocs(t *testing.T) {
	r := rng.New(14)
	for _, c := range slices.Concat(PaperCodecs(), ExtensionCodecs()) {
		shape := Shape{Rows: 64, Cols: 33}
		n := shape.Len()
		wire := c.NewEncoder(n, shape, 1).Encode(randVec(r, n))
		acc := randVec(r, n)
		if allocs := testing.AllocsPerRun(10, func() {
			if err := c.DecodeAdd(wire, n, shape, acc); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: DecodeAdd allocates %v times", c.Name(), allocs)
		}
	}
}
