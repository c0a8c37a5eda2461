package quant

import (
	"math"
	"testing"

	"repro/rng"
)

func randVec(r *rng.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = r.Norm(1)
	}
	return v
}

// allCodecs returns one instance of every codec family for generic tests.
func allCodecs() []Codec {
	return []Codec{
		FP32{},
		OneBit{},
		NewOneBitReshaped(64),
		NewOneBitReshaped(512),
		NewQSGD(2, 128, MaxNorm),
		NewQSGD(4, 512, MaxNorm),
		NewQSGD(8, 512, MaxNorm),
		NewQSGD(16, 8192, MaxNorm),
		NewQSGD(4, 512, TwoNorm),
		NewQSGDScheme(4, 512, MaxNorm, Uniform),
		NewQSGDScheme(8, 256, TwoNorm, Uniform),
	}
}

// TestEncodedBytesMatchesWire verifies EncodedBytes == len(Encode(...))
// for every codec across many sizes, including non-multiple-of-group
// tails. The simulator prices communication with EncodedBytes, so this
// equality is load-bearing for the whole performance study.
func TestEncodedBytesMatchesWire(t *testing.T) {
	r := rng.New(1)
	sizes := []int{1, 3, 31, 32, 33, 63, 64, 65, 127, 128, 500, 512, 513, 4096, 10000}
	for _, c := range allCodecs() {
		for _, n := range sizes {
			shape := Shape{Rows: 10, Cols: (n + 9) / 10}
			src := randVec(r, n)
			enc := c.NewEncoder(n, shape, 7)
			wire := enc.Encode(src)
			if got, want := len(wire), c.EncodedBytes(n, shape); got != want {
				t.Errorf("%s n=%d: wire %d bytes, EncodedBytes says %d", c.Name(), n, got, want)
			}
		}
	}
}

// TestDecodeLengthChecks verifies codecs reject malformed wire buffers.
func TestDecodeLengthChecks(t *testing.T) {
	for _, c := range allCodecs() {
		n := 100
		shape := Shape{Rows: 10, Cols: 10}
		dst := make([]float32, n)
		if err := c.Decode(make([]byte, 1), n, shape, dst); err == nil {
			t.Errorf("%s: expected error for short wire", c.Name())
		}
		good := c.NewEncoder(n, shape, 1).Encode(make([]float32, n))
		if err := c.Decode(good, n, shape, make([]float32, n+1)); err == nil {
			t.Errorf("%s: expected error for wrong dst length", c.Name())
		}
	}
}

func TestFP32Roundtrip(t *testing.T) {
	r := rng.New(2)
	src := randVec(r, 777)
	c := FP32{}
	shape := Shape{Rows: 7, Cols: 111}
	wire := c.NewEncoder(len(src), shape, 0).Encode(src)
	dst := make([]float32, len(src))
	if err := c.Decode(wire, len(src), shape, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if src[i] != dst[i] {
			t.Fatalf("fp32 roundtrip not exact at %d: %v != %v", i, src[i], dst[i])
		}
	}
}

func TestFP32SpecialValues(t *testing.T) {
	src := []float32{0, float32(math.Inf(1)), float32(math.Inf(-1)), -0, 1e-38, 3.4e38}
	c := FP32{}
	shape := Shape{Rows: len(src), Cols: 1}
	wire := c.NewEncoder(len(src), shape, 0).Encode(src)
	dst := make([]float32, len(src))
	if err := c.Decode(wire, len(src), shape, dst); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if math.Float32bits(src[i]) != math.Float32bits(dst[i]) {
			t.Fatalf("fp32 special value %d not preserved", i)
		}
	}
}

// TestDeterministicEncoding: the same encoder sequence produces identical
// wire bytes on repeated construction — the reproducibility invariant.
func TestDeterministicEncoding(t *testing.T) {
	r := rng.New(3)
	src1 := randVec(r, 1000)
	src2 := randVec(r, 1000)
	for _, c := range allCodecs() {
		shape := Shape{Rows: 10, Cols: 100}
		e1 := c.NewEncoder(1000, shape, 99)
		e2 := c.NewEncoder(1000, shape, 99)
		for _, src := range [][]float32{src1, src2} {
			w1 := append([]byte(nil), e1.Encode(src)...)
			w2 := append([]byte(nil), e2.Encode(src)...)
			if string(w1) != string(w2) {
				t.Errorf("%s: nondeterministic encoding", c.Name())
			}
		}
	}
}

// TestCompressionRatios checks the exact wire arithmetic the paper's
// performance analysis rests on.
func TestCompressionRatios(t *testing.T) {
	cases := []struct {
		codec Codec
		shape Shape
		want  float64
		tol   float64
	}{
		// QSGD 4-bit bucket 512: (512*4)/(4+256) ≈ 7.88×.
		{NewQSGD(4, 512, MaxNorm), Shape{Rows: 512, Cols: 100}, 7.88, 0.01},
		// QSGD 8-bit bucket 512: 2048/(4+512) ≈ 3.97×.
		{NewQSGD(8, 512, MaxNorm), Shape{Rows: 512, Cols: 100}, 3.97, 0.01},
		// QSGD 2-bit bucket 128: 512/(4+32) ≈ 14.2×.
		{NewQSGD(2, 128, MaxNorm), Shape{Rows: 128, Cols: 100}, 14.22, 0.01},
		// 1bit* bucket 64: 256/(8+8) = 16×.
		{NewOneBitReshaped(64), Shape{Rows: 64, Cols: 100}, 16, 0.01},
		// Classic 1bit on a 4096-row FC matrix: 16384/(8+512) ≈ 31.5×.
		{OneBit{}, Shape{Rows: 4096, Cols: 4096}, 31.5, 0.1},
		// Classic 1bit on a 3-row conv kernel: 12/(8+4) = 1.0× — the
		// paper's "no communication reduction" artefact.
		{OneBit{}, Shape{Rows: 3, Cols: 1000}, 1.0, 0.01},
		// FP32 is exactly 1×.
		{FP32{}, Shape{Rows: 100, Cols: 100}, 1.0, 0},
	}
	for _, tc := range cases {
		got := CompressionRatio(tc.codec, tc.shape)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("%s %v: ratio %.3f, want %.3f±%.3f",
				tc.codec.Name(), tc.shape, got, tc.want, tc.tol)
		}
	}
}

func TestRegistryNames(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c == nil {
			t.Fatalf("ByName(%q) returned nil codec", name)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("expected error for unknown codec")
	}
}

func TestPaperCodecsOrder(t *testing.T) {
	cs := PaperCodecs()
	if len(cs) != 7 {
		t.Fatalf("want 7 paper codecs, got %d", len(cs))
	}
	if cs[0].Name() != "32bit" || cs[6].Name() != "1bit" {
		t.Fatalf("unexpected ladder order: %s ... %s", cs[0].Name(), cs[6].Name())
	}
}

func TestGroupSizes(t *testing.T) {
	shape := Shape{Rows: 37, Cols: 5}
	if g := (OneBit{}).GroupSize(shape); g != 37 {
		t.Errorf("OneBit group = %d, want rows=37", g)
	}
	if g := NewOneBitReshaped(64).GroupSize(shape); g != 64 {
		t.Errorf("reshaped group = %d, want 64", g)
	}
	if g := NewQSGD(4, 512, MaxNorm).GroupSize(shape); g != 512 {
		t.Errorf("qsgd group = %d, want 512", g)
	}
}

func TestZeroLengthVectors(t *testing.T) {
	for _, c := range allCodecs() {
		shape := Shape{Rows: 1, Cols: 0}
		if got := c.EncodedBytes(0, shape); got != 0 {
			t.Errorf("%s: EncodedBytes(0) = %d", c.Name(), got)
		}
		wire := c.NewEncoder(0, shape, 0).Encode(nil)
		if len(wire) != 0 {
			t.Errorf("%s: empty encode produced %d bytes", c.Name(), len(wire))
		}
		if err := c.Decode(wire, 0, shape, nil); err != nil {
			t.Errorf("%s: empty decode failed: %v", c.Name(), err)
		}
	}
}

// qsgdBenchConfigs are the micro-benchmark configurations: every width
// at the study's default (sign-magnitude, max-norm, bucket 512), and
// the other norm and schemes at 4 bit.
var qsgdBenchConfigs = []struct {
	name string
	c    QSGD
}{
	{"2bit", NewQSGD(2, 512, MaxNorm)},
	{"4bit", NewQSGD(4, 512, MaxNorm)},
	{"8bit", NewQSGD(8, 512, MaxNorm)},
	{"16bit", NewQSGD(16, 512, MaxNorm)},
	{"4bit-l2", NewQSGD(4, 512, TwoNorm)},
	{"4bit-uni", NewQSGDScheme(4, 512, MaxNorm, Uniform)},
	{"4bit-exp", NewQSGDScheme(4, 512, MaxNorm, Exponential)},
}

func benchEncode(b *testing.B, c Codec) {
	r := rng.New(1)
	src := randVec(r, 1<<20)
	shape := Shape{Rows: 1024, Cols: 1024}
	e := c.NewEncoder(len(src), shape, 1)
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(src)
	}
}

func benchDecode(b *testing.B, c Codec) {
	r := rng.New(1)
	src := randVec(r, 1<<20)
	shape := Shape{Rows: 1024, Cols: 1024}
	wire := c.NewEncoder(len(src), shape, 1).Encode(src)
	dst := make([]float32, len(src))
	b.SetBytes(int64(4 * len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Decode(wire, len(src), shape, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeQSGD(b *testing.B) {
	for _, cfg := range qsgdBenchConfigs {
		b.Run(cfg.name, func(b *testing.B) { benchEncode(b, cfg.c) })
	}
}

func BenchmarkDecodeQSGD(b *testing.B) {
	for _, cfg := range qsgdBenchConfigs {
		b.Run(cfg.name, func(b *testing.B) { benchDecode(b, cfg.c) })
	}
}

func BenchmarkEncodeOneBit(b *testing.B) { benchEncode(b, NewOneBitReshaped(64)) }
