package quant

import (
	"bytes"
	"math"
	"testing"

	"repro/rng"
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
