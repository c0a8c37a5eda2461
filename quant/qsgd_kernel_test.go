package quant

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"repro/rng"
)

// Parity tests for the QSGD kernels in qsgd.go against the scalar
// reference in qsgd_ref_test.go. "Parity" is byte-equal wire (so the
// same codes and the same RNG draws in the same order) and bit-equal
// decoded floats; a kernel change that moves either moves training
// digests, the TCP byte counts and the sim goldens.

var (
	kernelBits    = []int{2, 4, 8, 16}
	kernelSchemes = []Scheme{SignMagnitude, Uniform, Exponential}
	kernelNorms   = []Norm{MaxNorm, TwoNorm}
	kernelBuckets = []int{1, 3, 64, 512, 8192}
)

// forEachKernelConfig runs fn over every bits × scheme × norm × bucket.
func forEachKernelConfig(fn func(q QSGD)) {
	for _, bits := range kernelBits {
		for _, scheme := range kernelSchemes {
			for _, norm := range kernelNorms {
				for _, bucket := range kernelBuckets {
					fn(NewQSGDScheme(bits, bucket, norm, scheme))
				}
			}
		}
	}
}

// forEachPath runs fn once per encoder path this machine has: the AVX2
// kernels of qsgd_amd64.s when the CPU has them, then the portable
// loops, with quant's switch set accordingly and restored afterwards.
func forEachPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = avx2
			fn(t)
		})
	}
}

// kernelInputs returns the named input vectors of length n the parity
// table runs: dense Gaussian, sparse (ReLU-like, with signed zeros),
// all-zero, one non-zero per vector, float32 denormals, vectors whose
// entries equal ±scale (every element the bucket maximum), and values
// spread over forty ("tiny") and 250 ("wide") binades.
func kernelInputs(n int, seed uint64) map[string][]float32 {
	r := rng.New(seed)
	dense := make([]float32, n)
	sparse := make([]float32, n)
	denorm := make([]float32, n)
	atScale := make([]float32, n)
	tiny := make([]float32, n)
	wide := make([]float32, n)
	for i := range dense {
		dense[i] = r.Norm(1)
		switch r.Intn(4) {
		case 0:
			sparse[i] = r.Norm(0.01)
		case 1:
			sparse[i] = float32(math.Copysign(0, -1))
		}
		denorm[i] = math.Float32frombits(uint32(r.Intn(1<<23))) * float32(1-2*r.Intn(2))
		atScale[i] = 0.375 * float32(1-2*r.Intn(2))
		// Spans forty binades below the maximum so the exponential
		// scheme's lowest levels and its level-0 clamp are reached.
		tiny[i] = float32(math.Ldexp(r.Float64()+0.5, -r.Intn(40))) * float32(1-2*r.Intn(2))
		// Ratios below 2^−127: the 8-bit exponential grid's level 0.
		wide[i] = float32(math.Ldexp(r.Float64()+0.5, r.Intn(250)-125)) * float32(1-2*r.Intn(2))
	}
	single := make([]float32, n)
	single[n/2] = -2.5
	return map[string][]float32{
		"dense": dense, "sparse": sparse, "zero": make([]float32, n),
		"single": single, "denormal": denorm, "at-scale": atScale, "tiny": tiny, "wide": wide,
	}
}

// kernelLengths are vector lengths relative to a bucket: partial last
// words, ragged last buckets, exact multiples.
func kernelLengths(bucket int) []int {
	lens := []int{1, 7, 17, bucket, bucket + 1, 2*bucket + 5}
	if bucket > 1 {
		lens = append(lens, bucket-1)
	}
	return lens
}

// sameFloat32 is bit equality, except that any NaN equals any NaN: which
// operand's sign and payload an x86 addition of two NaNs propagates
// depends on register allocation, so only a NaN scale from a hostile or
// already-diverged peer is affected and there is nothing to pin.
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func assertKernelParity(t *testing.T, q QSGD, label string, enc Encoder, ref *refQSGDEncoder, src []float32) {
	t.Helper()
	n := len(src)
	shape := Shape{Rows: 1, Cols: n}
	got, want := enc.Encode(src), ref.Encode(src)
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %s n=%d: wire differs at byte %d of %d: got %#x, reference %#x",
					q.Name(), label, n, i, len(got), got[i], want[i])
			}
		}
		t.Fatalf("%s %s n=%d: wire length %d, reference %d", q.Name(), label, n, len(got), len(want))
	}
	dec, refDec := make([]float32, n), make([]float32, n)
	if err := q.Decode(got, n, shape, dec); err != nil {
		t.Fatalf("%s %s n=%d: decode: %v", q.Name(), label, n, err)
	}
	if err := refQSGDDecode(q, want, n, shape, refDec); err != nil {
		t.Fatalf("%s %s n=%d: reference decode: %v", q.Name(), label, n, err)
	}
	for i := range dec {
		if !sameFloat32(dec[i], refDec[i]) {
			t.Fatalf("%s %s n=%d: decoded[%d] = %g (%#x), reference %g (%#x)", q.Name(), label, n, i,
				dec[i], math.Float32bits(dec[i]), refDec[i], math.Float32bits(refDec[i]))
		}
	}
}

// TestQSGDKernelParity: every configuration, over every input class
// and length, three consecutive Encode calls on one stream (the stream
// position after a call is part of the contract) and a Reseed between
// rounds, on each path.
func TestQSGDKernelParity(t *testing.T) {
	forEachPath(t, testQSGDKernelParity)
}

func testQSGDKernelParity(t *testing.T) {
	forEachKernelConfig(func(q QSGD) {
		for _, n := range kernelLengths(q.bucket) {
			shape := Shape{Rows: 1, Cols: n}
			seed := uint64(n)*31 + uint64(q.bits)
			enc := q.NewEncoder(n, shape, seed)
			ref := newRefQSGDEncoder(q, n, shape, seed)
			for label, src := range kernelInputs(n, seed) {
				for call := 0; call < 3; call++ {
					assertKernelParity(t, q, fmt.Sprintf("%s call %d", label, call), enc, ref, src)
				}
				enc.(Reseeder).Reseed(seed ^ 0xabcdef)
				ref.rng.SetState(seed ^ 0xabcdef)
			}
		}
	})
}

// TestQSGDDecodeParityOnArbitraryWire: the decoders agree on every
// code, including the ones no encoder emits (sign-magnitude's −0,
// uniform's code above s) and on NaN/Inf scales — what a corrupted or
// hostile peer can send.
func TestQSGDDecodeParityOnArbitraryWire(t *testing.T) {
	r := rng.New(7)
	forEachKernelConfig(func(q QSGD) {
		n := 2*q.bucket + 3
		shape := Shape{Rows: 1, Cols: n}
		wire := make([]byte, q.EncodedBytes(n, shape))
		for round := 0; round < 3; round++ {
			for i := range wire {
				wire[i] = byte(r.Uint32())
			}
			dec, refDec := make([]float32, n), make([]float32, n)
			if err := q.Decode(wire, n, shape, dec); err != nil {
				t.Fatal(err)
			}
			if err := refQSGDDecode(q, wire, n, shape, refDec); err != nil {
				t.Fatal(err)
			}
			for i := range dec {
				if !sameFloat32(dec[i], refDec[i]) {
					t.Fatalf("%s: decoded[%d] = %#x, reference %#x", q.Name(), i,
						math.Float32bits(dec[i]), math.Float32bits(refDec[i]))
				}
			}
		}
	})
}

// TestQSGDKernelDrawsMatchRNG: the kernel's inlined splitmix64 consumes
// the same stream as rng.RNG — one Float64 per element with 0 < x < s,
// none for zeros, the bucket maximum or a zero-scale bucket — so the
// encoder's position after Encode equals that of an rng.RNG advanced by
// the same number of draws. On each path.
func TestQSGDKernelDrawsMatchRNG(t *testing.T) {
	forEachPath(t, testQSGDKernelDrawsMatchRNG)
}

func testQSGDKernelDrawsMatchRNG(t *testing.T) {
	const seed = 99
	// Bucket 0: maximum 4 plus three interior values and two zeros (3
	// draws). Bucket 1: all zero (0 draws). Bucket 2, ragged: the
	// maximum alone and its negation (0 draws), one interior (1 draw).
	src := []float32{4, 1, 0, -2.5, 0, 3, 0, 0, 0, 0, 0, 0, -7, 7, 0.5}
	for _, scheme := range kernelSchemes {
		q := NewQSGDScheme(4, 6, MaxNorm, scheme)
		enc := q.NewEncoder(len(src), Shape{Rows: 1, Cols: len(src)}, seed).(*qsgdEncoder)
		enc.Encode(src)
		want := rng.New(seed)
		draws := 4
		if scheme == Uniform {
			// Uniform maps −scale to x = 0 and zero to x = s/2: in the
			// non-zero buckets only ±scale are free, zeros draw too.
			draws = 5 + 1
		}
		for i := 0; i < draws; i++ {
			want.Float64()
		}
		if enc.state != want.State() {
			t.Errorf("%s: stream position %#x after Encode, want %#x (%d draws)", q.Name(), enc.state, want.State(), draws)
		}
	}
	// The draw values themselves: rng.Step/UnitFloat64 is Float64.
	a, state := rng.New(seed), uint64(seed)
	for i := 0; i < 1000; i++ {
		var bits uint64
		state, bits = rng.Step(state)
		if got, want := rng.UnitFloat64(bits), a.Float64(); got != want || state != a.State() {
			t.Fatalf("draw %d: Step gives %v at %#x, RNG.Float64 %v at %#x", i, got, state, want, a.State())
		}
	}
}

// FuzzQSGDKernelParity feeds raw float bits — NaN, ±Inf, denormals —
// through every scheme and norm. For finite inputs kernel and reference
// must agree exactly. A NaN (or an infinity, which makes x = Inf/Inf)
// is where they may part, by design: the kernel draws nothing for an
// element whose x is NaN and writes level 0 under the value's own sign
// bit, while the reference drew once and converted NaN to an integer,
// which is platform-defined. There the contract is: no panic, the same
// wire length, and a decode that does not panic.
func FuzzQSGDKernelParity(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 128, 63, 0, 0, 0, 192, 0, 0, 0, 0, 1, 0, 0, 128})
	f.Add(uint64(2), []byte{0, 0, 192, 127, 0, 0, 128, 63, 0, 0, 128, 127, 0, 0, 128, 255}) // NaN, 1, +Inf, −Inf
	f.Add(uint64(3), []byte{255, 255, 127, 127, 1, 0, 0, 0, 0, 0, 0, 128, 255, 255, 255, 255, 9, 9, 9})
	f.Add(uint64(4), bytes.Repeat([]byte{0xcd, 0xcc, 0x4c, 0x3e, 0xcd, 0xcc, 0x4c, 0xbe}, 40))
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		src := fuzzFloats(raw)
		n := len(src)
		if n == 0 || n > 4096 {
			return
		}
		finite := true
		for _, v := range src {
			if math.IsInf(float64(v), 0) || v != v {
				finite = false
			}
		}
		shape := Shape{Rows: 1, Cols: n}
		bits := kernelBits[seed%4]
		bucket := []int{1, 5, 16, 512}[seed>>2%4]
		forEachPath(t, func(t *testing.T) {
			for _, scheme := range kernelSchemes {
				for _, norm := range kernelNorms {
					q := NewQSGDScheme(bits, bucket, norm, scheme)
					enc := q.NewEncoder(n, shape, seed)
					if finite {
						ref := newRefQSGDEncoder(q, n, shape, seed)
						assertKernelParity(t, q, "fuzz", enc, ref, src)
						assertKernelParity(t, q, "fuzz second call", enc, ref, src)
						continue
					}
					wire := enc.Encode(src)
					if len(wire) != q.EncodedBytes(n, shape) {
						t.Fatalf("%s: wire length %d, want %d", q.Name(), len(wire), q.EncodedBytes(n, shape))
					}
					if err := q.Decode(wire, n, shape, make([]float32, n)); err != nil {
						t.Fatalf("%s: decode of own wire: %v", q.Name(), err)
					}
				}
			}
		})
	})
}

// fuzzFloats reads raw as little-endian float32 bits, ignoring a
// partial last word.
func fuzzFloats(raw []byte) []float32 {
	src := make([]float32, len(raw)/4)
	for i := range src {
		src[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return src
}

var updateGolden = flag.Bool("update", false, "rewrite quant/testdata/qsgd_wire.golden")

// TestQSGDWireGolden pins an FNV-1a hash of the wire bytes of three
// consecutive Encode calls per configuration, so a later kernel change
// cannot drift silently even if it changes kernel and reference
// together. Regenerate with `go test ./quant -run Golden -update` only
// in a PR that says it changes QSGD arithmetic.
func TestQSGDWireGolden(t *testing.T) {
	forEachPath(t, testQSGDWireGolden)
}

func testQSGDWireGolden(t *testing.T) {
	const path = "testdata/qsgd_wire.golden"
	var got strings.Builder
	forEachKernelConfig(func(q QSGD) {
		n := 2*q.bucket + 5
		shape := Shape{Rows: 1, Cols: n}
		enc := q.NewEncoder(n, shape, 12345)
		h := fnv.New64a()
		inputs := kernelInputs(n, 777)
		for _, label := range []string{"dense", "sparse", "tiny", "wide"} {
			h.Write(enc.Encode(inputs[label]))
		}
		fmt.Fprintf(&got, "%s %016x\n", q.Name(), h.Sum64())
	})
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d configurations hashed, golden has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("wire hash drifted: got %q, golden %q", gotLines[i], wantLines[i])
		}
	}
}
