package quant

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/rng"
)

// fp32Awkward is every float32 bit pattern a shortcut could mangle:
// quiet and signalling NaNs of both signs with payloads, the zeros, the
// smallest and largest denormals, the infinities and the extremes.
var fp32Awkward = []uint32{
	0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff800001, 0x7fbfffff,
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
	0x7f800000, 0xff800000, 0x7f7fffff, 0xff7fffff, 0x00800000, 0x3f800000,
}

// checkFP32Parity holds the codec's encode and decode of vals — the
// byte view where the host allows it — against the portable
// element-by-element loops, on bits.
func checkFP32Parity(t *testing.T, vals []float32) {
	t.Helper()
	n := len(vals)
	want := make([]byte, 4*n)
	fp32Put(want, vals)
	got := FP32{}.NewEncoder(n, Shape{Rows: 1, Cols: n}, 0).Encode(vals)
	if !bytes.Equal(got, want) {
		t.Fatalf("n=%d: encode differs from the portable loop", n)
	}
	// Decode from a wire that sits at an odd byte offset, as a payload
	// behind a frame header does.
	wire := append(make([]byte, 1, 1+len(want)), want...)[1:]
	ref := make([]float32, n)
	fp32Get(ref, wire)
	dst := make([]float32, n+1)[1:]
	if err := (FP32{}).Decode(wire, n, Shape{}, dst); err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if g, w, in := math.Float32bits(dst[i]), math.Float32bits(ref[i]), math.Float32bits(vals[i]); g != w || g != in {
			t.Fatalf("n=%d element %d: decoded %#08x, portable %#08x, input %#08x", n, i, g, w, in)
		}
	}
	// DecodeAdd from the same unaligned wire, through the view and
	// through the portable loop, into an accumulator of the values
	// themselves (NaN plus NaN included).
	defer func(was bool) { fp32View = was }(fp32View)
	for _, view := range []bool{fp32View, false} {
		fp32View = view
		assertDecodeAdd(t, FP32{}, wire, n, Shape{Rows: 1, Cols: n}, vals)
	}
}

// TestFP32ViewParity: the fast path and the portable loops agree bit
// for bit on NaN payloads (signalling included), ±0, denormals, ±Inf,
// odd lengths and sub-slices at every alignment.
func TestFP32ViewParity(t *testing.T) {
	r := rng.New(8)
	pool := make([]float32, 0, 96)
	for _, b := range fp32Awkward {
		pool = append(pool, math.Float32frombits(b))
	}
	for len(pool) < cap(pool) {
		pool = append(pool, r.Norm(3))
	}
	for off := 0; off < 9; off++ {
		for _, n := range []int{0, 1, 2, 3, 5, 7, 8, 13, 31, 64, 87} {
			if off+n <= len(pool) {
				checkFP32Parity(t, pool[off:off+n])
			}
		}
	}
}

// TestFP32ViewSelected: on the little-endian hosts the benchmarks run on
// the encoder really returns the source's memory, and FP32 is the only
// codec that may.
func TestFP32ViewSelected(t *testing.T) {
	if runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64" {
		if !fp32View {
			t.Fatalf("%s is little-endian but the byte view was not selected", runtime.GOARCH)
		}
	}
	src := []float32{1, 2, 3, 4}
	wire := FP32{}.NewEncoder(4, Shape{Rows: 4, Cols: 1}, 0).Encode(src)
	src[2] = -7
	aliases := math.Float32frombits(binary.LittleEndian.Uint32(wire[8:])) == -7
	if aliases != fp32View {
		t.Fatalf("encode aliases its source: %v, view selected: %v", aliases, fp32View)
	}
}

// FuzzFP32ViewParity throws arbitrary bit patterns, lengths and slice
// offsets at the same comparison.
func FuzzFP32ViewParity(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x01, 0x00, 0x80, 0x7f, 0x00, 0x00, 0xc0, 0xff}, uint8(1))
	f.Add(bytes.Repeat([]byte{0xff, 0xff, 0x7f, 0x00, 0x01}, 13), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8) {
		vals := make([]float32, len(raw)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		checkFP32Parity(t, vals[min(int(off), len(vals)):])
	})
}

// BenchmarkFP32 sets the byte view beside the portable loops — the
// go-test twin of the ledger's quant.encode_mbps.32bit and
// quant.decode_mbps.32bit rows.
func BenchmarkFP32(b *testing.B) {
	src := randVec(rng.New(1), 1<<20)
	wire := make([]byte, 4*len(src))
	fp32Put(wire, src)
	dst := make([]float32, len(src))
	enc := FP32{}.NewEncoder(len(src), Shape{Rows: 1024, Cols: 1024}, 0)
	for _, bc := range []struct {
		name string
		op   func()
	}{
		{"encode/view", func() { enc.Encode(src) }},
		{"encode/portable", func() { fp32Put(wire, src) }},
		{"decode/view", func() {
			if err := (FP32{}).Decode(wire, len(src), Shape{}, dst); err != nil {
				b.Fatal(err)
			}
		}},
		{"decode/portable", func() { fp32Get(dst, wire) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if !fp32View && bc.name[len(bc.name)-4:] == "view" {
				b.Skip("big-endian host: the codec runs the portable loops")
			}
			b.SetBytes(int64(4 * len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.op()
			}
		})
	}
}
