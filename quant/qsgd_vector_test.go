package quant

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/rng"
	"repro/tensor"
)

// The AVX2 encoder against the portable one on the same machine. The
// reference parity in qsgd_kernel_test.go covers finite inputs only (the
// scalar reference treats NaN differently by design); here the two
// paths must agree byte for byte and on the stream position on every
// input, NaN and ±Inf included, because the ranks of a cluster that
// mixes AVX2, pre-AVX2 and arm64 hosts must put the same bytes on the
// wire.

// vectorSpecials are planted among the inputs: NaN, both infinities,
// both zeros, denormals and the float32 extremes.
var vectorSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
	math.MaxFloat32, -math.MaxFloat32, 1, -1,
}

// vectorInput returns n floats starting off floats into their backing
// array: Gaussian, one in four zero, and with specials every element
// with probability 1/16 one of vectorSpecials.
func vectorInput(r *rng.RNG, n, off int, specials bool) []float32 {
	buf := make([]float32, n+off)
	src := buf[off:]
	for i := range src {
		if r.Intn(4) > 0 {
			src[i] = r.Norm(1)
		}
		if specials && r.Intn(16) == 0 {
			src[i] = vectorSpecials[r.Intn(len(vectorSpecials))]
		}
	}
	return src
}

// assertPathsAgree encodes src twice on one stream with the AVX2
// kernels and with the portable loops and fails unless the wire bytes
// and the stream position after each call are equal.
func assertPathsAgree(t *testing.T, q QSGD, src []float32, seed uint64) {
	t.Helper()
	n := len(src)
	shape := Shape{Rows: 1, Cols: n}
	defer func(was bool) { useAVX2 = was }(useAVX2)
	useAVX2 = true
	vec := q.NewEncoder(n, shape, seed).(*qsgdEncoder)
	useAVX2 = false
	port := q.NewEncoder(n, shape, seed).(*qsgdEncoder)
	for call := 0; call < 2; call++ {
		useAVX2 = true
		got := bytes.Clone(vec.Encode(src))
		useAVX2 = false
		want := port.Encode(src)
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s n=%d call %d: wire differs at byte %d of %d: AVX2 %#x, portable %#x; input %v",
						q.Name(), n, call, i, len(got), got[i], want[i], src)
				}
			}
		}
		if vec.state != port.state {
			t.Fatalf("%s n=%d call %d: stream position %#x after the AVX2 encode, %#x after the portable one",
				q.Name(), n, call, vec.state, port.state)
		}
	}
}

// skipWithoutAVX2 skips a test that compares the AVX2 path with the
// portable one on a machine that has only the latter.
func skipWithoutAVX2(t testing.TB) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this machine: nothing to compare the portable path with")
	}
}

// TestQSGDVectorMatchesPortable runs every chunk length from 1 to 130
// (every tail of the four-element groups and of the two-group loop) at
// four start alignments, one bucket per chunk and then two buckets
// and a ragged one, with and without NaN/±Inf among the values, over
// every bits × scheme × norm; then vectors that span several chunks
// of a large bucket.
func TestQSGDVectorMatchesPortable(t *testing.T) {
	skipWithoutAVX2(t)
	r := rng.New(5)
	for _, bits := range kernelBits {
		for _, scheme := range kernelSchemes {
			for _, norm := range kernelNorms {
				for n := 1; n <= 130; n++ {
					q := NewQSGDScheme(bits, n, norm, scheme)
					for off := 0; off < 4; off++ {
						specials := (n+off)%2 == 0
						assertPathsAgree(t, q, vectorInput(r, n, off, specials), uint64(n*4+off))
						assertPathsAgree(t, q, vectorInput(r, 2*n+n/2+1, off, specials), uint64(n))
					}
				}
				for _, bucket := range []int{512, 8192} {
					q := NewQSGDScheme(bits, bucket, norm, scheme)
					for _, n := range []int{3*codeChunk + 7, 2*bucket + 5} {
						assertPathsAgree(t, q, vectorInput(r, n, 1, false), 1)
						assertPathsAgree(t, q, vectorInput(r, n, 3, true), 2)
					}
				}
			}
		}
	}
}

// FuzzQSGDVectorParity feeds raw float bits — NaN, ±Inf, denormals —
// at any alignment through both paths, for a bits/bucket pair drawn
// from the seed and every scheme and norm.
func FuzzQSGDVectorParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), []byte{0, 0, 128, 63, 0, 0, 0, 192, 0, 0, 0, 0, 1, 0, 0, 128})
	f.Add(uint64(2), uint8(1), []byte{0, 0, 192, 127, 0, 0, 128, 63, 0, 0, 128, 127, 0, 0, 128, 255}) // NaN, 1, +Inf, −Inf
	f.Add(uint64(7), uint8(2), []byte{255, 255, 127, 127, 1, 0, 0, 0, 0, 0, 0, 128, 255, 255, 255, 255, 9, 9, 9})
	f.Add(uint64(14), uint8(3), bytes.Repeat([]byte{0xcd, 0xcc, 0x4c, 0x3e, 0, 0, 0xc0, 0x7f, 0xcd, 0xcc, 0x4c, 0xbe}, 40))
	f.Fuzz(func(t *testing.T, seed uint64, off uint8, raw []byte) {
		skipWithoutAVX2(t)
		vals := fuzzFloats(raw)
		if len(vals) == 0 || len(vals) > 4096 {
			return
		}
		// The same values off floats into a fresh backing array.
		src := append(make([]float32, off%4, int(off%4)+len(vals)), vals...)[off%4:]
		bits := kernelBits[seed%4]
		bucket := []int{1, 5, 16, 131, 512}[seed>>2%5]
		for _, scheme := range kernelSchemes {
			for _, norm := range kernelNorms {
				assertPathsAgree(t, NewQSGDScheme(bits, bucket, norm, scheme), src, seed)
			}
		}
	})
}

// unmix inverts splitmix64's output function: unmix(r) is the counter
// z with rng.Step(z−γ) returning r.
func unmix(r uint64) uint64 {
	unxorshift := func(y uint64, k uint) uint64 {
		x := y
		for i := 0; i < 64; i++ {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 { // c·x ≡ 1 mod 2^64, for odd c
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z := unxorshift(r, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// TestQSGDDrawCompareEdges pins the bump rule UnitFloat64(r) < frac at
// its edges, where an inexact conversion of r>>11 or a ≤ for the < would
// show: frac ∈ {0, 2^−53, ½, 1−2^−53} against r>>11 ∈ {0, 1, 2^52,
// 2^53−1}, each pair placed on every lane of both groups of the
// kernel's loop (and on the odd group before it), the stream positioned
// by inverting splitmix64 so that exactly that element sees that r.
func TestQSGDDrawCompareEdges(t *testing.T) {
	gamma, _ := rng.Step(0)
	fracs := []float64{0, 0x1p-53, 0.5, 1 - 0x1p-53}
	units := []uint64{0, 1, 1 << 52, 1<<53 - 1}
	if _, r := rng.Step(unmix(12345) - gamma); r != 12345 {
		t.Fatalf("unmix does not invert splitmix64: %#x", r)
	}
	forEachPath(t, func(t *testing.T) {
		for _, n := range []int{8, 12} {
			for pos := 0; pos < n; pos++ {
				for _, frac := range fracs {
					for _, u := range units {
						for _, low := range []uint64{0, 1<<11 - 1} {
							codes := make([]uint32, n)
							fr := make([]float64, n)
							draw := make([]uint8, n)
							// Every element draws, so element pos runs on counter
							// state + γ·(1+pos).
							for i := range draw {
								draw[i], fr[i] = 1, 0.25
							}
							fr[pos] = frac
							state := unmix(u<<11|low) - gamma*uint64(1+pos)
							end := drawLevels(codes, fr, draw, state)
							want := uint32(0)
							if float64(u) < frac*(1<<53) {
								want = 1
							}
							if codes[pos] != want {
								t.Fatalf("n=%d element %d: r>>11 = %#x, frac = %v: bumped %d, want %d", n, pos, u, frac, codes[pos], want)
							}
							if end != state+gamma*uint64(n) {
								t.Fatalf("n=%d: stream position %#x after %d draws from %#x", n, end, n, state)
							}
						}
					}
				}
			}
		}
	})
}

// assertDecodePathsAgree decodes wire (a payload of q for len(acc)
// elements) with the AVX2 kernels and with the portable loops, plainly
// and added into acc. Each plain decode must match the scalar reference
// (any NaN matching any NaN, as in TestQSGDDecodeParityOnArbitraryWire)
// and the other path bit for bit, and each DecodeAdd must give the
// bits of that decode followed by tensor.Add into acc.
func assertDecodePathsAgree(t *testing.T, q QSGD, wire []byte, acc []float32) {
	t.Helper()
	n := len(acc)
	shape := Shape{Rows: 1, Cols: n}
	ref := make([]float32, n)
	if err := refQSGDDecode(q, wire, n, shape, ref); err != nil {
		t.Fatal(err)
	}
	defer func(was bool) { useAVX2 = was }(useAVX2)
	var decoded [2][]float32
	for p, avx2 := range []bool{true, false} {
		useAVX2 = avx2
		dec := make([]float32, n)
		if err := q.Decode(wire, n, shape, dec); err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(acc)
		tensor.Add(want, dec)
		got := slices.Clone(acc)
		if err := q.DecodeAdd(wire, n, shape, got); err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if !sameFloat32(dec[i], ref[i]) {
				t.Fatalf("%s n=%d avx2=%v: decoded[%d] = %#x, reference %#x", q.Name(), n, avx2, i, math.Float32bits(dec[i]), math.Float32bits(ref[i]))
			}
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s n=%d avx2=%v: element %d is %#x after DecodeAdd, %#x after Decode+Add (acc %#x, decoded %#x)",
					q.Name(), n, avx2, i, math.Float32bits(got[i]), math.Float32bits(want[i]), math.Float32bits(acc[i]), math.Float32bits(dec[i]))
			}
		}
		decoded[p] = dec
	}
	for i := range decoded[0] {
		if a, b := math.Float32bits(decoded[0][i]), math.Float32bits(decoded[1][i]); a != b {
			t.Fatalf("%s n=%d: decoded[%d] = %#x on AVX2, %#x on the portable loops", q.Name(), n, i, a, b)
		}
	}
}

// decodeInput returns arbitrary wire for n elements of q starting off
// bytes into its backing array, and an accumulator of n floats (with
// specials) starting off floats into its own.
func decodeInput(r *rng.RNG, q QSGD, n, off int) ([]byte, []float32) {
	w := arbitraryWire(r, q, n, Shape{Rows: 1, Cols: n})
	wire := append(make([]byte, off, off+len(w)), w...)[off:]
	acc := make([]float32, off+n)[off:]
	for i, b := range specialWords(r, n) {
		acc[i] = math.Float32frombits(b)
	}
	return wire, acc
}

// TestQSGDDecodeVectorMatchesPortable runs the decoders over every
// length from 1 to 70 and then lengths of several words and buckets,
// at four alignments of wire and accumulator, over every bits × scheme
// and buckets on both sides of the table threshold: the table kernels'
// whole words, their partial last word and the table-less chunks.
func TestQSGDDecodeVectorMatchesPortable(t *testing.T) {
	skipWithoutAVX2(t)
	r := rng.New(6)
	for _, bits := range kernelBits {
		for _, scheme := range kernelSchemes {
			for _, bucket := range []int{16, 32, 48, 512} {
				q := NewQSGDScheme(bits, bucket, MaxNorm, scheme)
				lens := []int{3*codeChunk + 5, 2*bucket + 17}
				for n := 1; n <= 70; n++ {
					lens = append(lens, n)
				}
				for _, n := range lens {
					for off := 0; off < 4; off++ {
						wire, acc := decodeInput(r, q, n, off)
						assertDecodePathsAgree(t, q, wire, acc)
					}
				}
			}
		}
	}
}

// refPackCodes packs codes LSB-first, 32/bits to a little-endian word,
// one code at a time.
func refPackCodes(codes []uint32, bits uint) []byte {
	words := make([]uint32, words32(len(codes)*int(bits)))
	per := 32 / int(bits)
	for i, c := range codes {
		words[i/per] |= c << (uint(i%per) * bits)
	}
	out := make([]byte, 0, 4*len(words))
	for _, w := range words {
		out = binary.LittleEndian.AppendUint32(out, w)
	}
	return out
}

// assertPackPathsAgree packs codes (each below 2^bits) into dst on both
// paths and fails unless each writes refPackCodes' bytes and returns the
// rest of dst.
func assertPackPathsAgree(t *testing.T, codes []uint32, bits uint, dst []byte) {
	t.Helper()
	want := refPackCodes(codes, bits)
	defer func(was bool) { useAVX2 = was }(useAVX2)
	for _, avx2 := range []bool{true, false} {
		useAVX2 = avx2
		clear(dst)
		rest := packCodes(dst, codes, bits)
		if got := dst[:len(want)]; !bytes.Equal(got, want) || len(rest) != len(dst)-len(want) {
			t.Fatalf("bits=%d n=%d avx2=%v: packed %x (%d bytes left), want %x (%d)", bits, len(codes), avx2, got, len(rest), want, len(dst)-len(want))
		}
	}
}

// TestQSGDPackVectorMatchesPortable packs every length from 1 to 600 —
// every block and word tail at each width — at four alignments of dst,
// codes random below 2^bits with the extremes planted.
func TestQSGDPackVectorMatchesPortable(t *testing.T) {
	skipWithoutAVX2(t)
	r := rng.New(7)
	for _, bits := range kernelBits {
		for n := 1; n <= 600; n++ {
			codes := make([]uint32, n)
			for i := range codes {
				codes[i] = uint32(r.Intn(1 << bits))
				if r.Intn(8) == 0 {
					codes[i] = uint32(1<<bits-1) * uint32(r.Intn(2))
				}
			}
			off := n % 4
			dst := make([]byte, off+4*words32(n*bits)+4)[off:]
			assertPackPathsAgree(t, codes, uint(bits), dst)
		}
	}
}

// FuzzQSGDDecodeParity feeds raw bytes as the wire and as accumulator
// bits through the decoders and the pack, for a configuration drawn
// from the seed: Decode against the scalar reference and the two paths
// against each other, DecodeAdd against Decode plus tensor.Add, and
// packCodes of the wire's codes against the code-at-a-time packer.
func FuzzQSGDDecodeParity(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 128, 63, 0x21, 0x43, 0x65, 0x87}, []byte{0, 0, 192, 127})
	f.Add(uint64(5), bytes.Repeat([]byte{0xff, 0xc0, 0x80, 0x7f, 0x5a}, 60), []byte{1, 0, 192, 255, 0, 0, 0, 128})
	f.Add(uint64(22), bytes.Repeat([]byte{0x00, 0x00, 0x80, 0x7f, 0xe4, 0x1b, 0xc6, 0x39}, 90), []byte{0, 0, 128, 255})
	f.Add(uint64(43), bytes.Repeat([]byte{0xcd, 0xcc, 0x4c, 0x3e, 0xff, 0xff, 0xff, 0xff}, 200), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, raw, accBits []byte) {
		skipWithoutAVX2(t)
		bits := kernelBits[seed%4]
		q := NewQSGDScheme(bits, []int{1, 16, 32, 64, 131, 512}[seed>>2%6], MaxNorm, kernelSchemes[seed>>5%3])
		n := min(len(raw), 4096)
		if n == 0 {
			return
		}
		wire := make([]byte, q.EncodedBytes(n, Shape{Rows: 1, Cols: n}))
		for i := range wire {
			wire[i] = raw[i%max(len(raw), 1)]
		}
		acc := make([]float32, n)
		for i := range acc {
			if len(accBits) >= 4 {
				j := 4 * (i % (len(accBits) / 4))
				acc[i] = math.Float32frombits(binary.LittleEndian.Uint32(accBits[j:]))
			}
		}
		assertDecodePathsAgree(t, q, wire, acc)
		codes := make([]uint32, n)
		unpackCodes(codes, wire[4:], uint(bits))
		assertPackPathsAgree(t, codes, uint(bits), make([]byte, len(wire)))
	})
}
