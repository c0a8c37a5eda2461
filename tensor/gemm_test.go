package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/rng"
)

// The GEMM parity suite: every exported product against the portable
// loop of the same name, on float bits. On amd64 with AVX2 that is
// kernel against reference (gemm_amd64_test.go proves the kernels ran);
// elsewhere both sides are the portable loop and the suite only pins
// its shape handling.

// gemmCase is one product, named by the shape of the computation:
// dst is m×n and every element sums k terms.
type gemmCase struct {
	kind    gemmKind
	m, k, n int
}

var gemmKindNames = [...]string{gemmNN: "NN", gemmTA: "TA", gemmTB: "TB"}

func (c gemmCase) String() string {
	return fmt.Sprintf("%s/%dx%dx%d", gemmKindNames[c.kind], c.m, c.k, c.n)
}

// operands returns zeroed a and b of the stored shapes the case's entry
// point expects.
func (c gemmCase) operands() (a, b *Matrix) {
	switch c.kind {
	case gemmTA:
		return New(c.k, c.m), New(c.k, c.n)
	case gemmTB:
		return New(c.m, c.k), New(c.n, c.k)
	}
	return New(c.m, c.k), New(c.k, c.n)
}

// gemmEntryPoints pairs each exported product with the portable loop
// behind it.
var gemmEntryPoints = [...]struct{ exported, portable func(dst, a, b *Matrix) }{
	gemmNN: {MatMul, matMulGo},
	gemmTA: {MatMulTransA, matMulTransAGo},
	gemmTB: {MatMulTransB, matMulTransBGo},
}

// run computes the case into dst through the exported entry point, or
// through the portable loop behind it.
func (c gemmCase) run(portable bool, dst, a, b *Matrix) {
	if portable {
		gemmEntryPoints[c.kind].portable(dst, a, b)
	} else {
		gemmEntryPoints[c.kind].exported(dst, a, b)
	}
}

// The operand flavours of the suite. Each keeps a share of exact zeros
// of both signs, as a ReLU output or a pooled gradient has.
const (
	flavNormal    = iota // U[-2,2)
	flavSparse           // half the elements ±0
	flavDenormal         // products and sums in the denormal range
	flavHuge             // 1e±30 magnitudes: sums overflow to ±Inf, Inf-Inf to NaN
	flavNonFinite        // NaN and ±Inf among the inputs
	numFlavours
)

func fillFlavour(m *Matrix, r *rng.RNG, flavour int, zeroShare float32) {
	for i := range m.Data {
		v := r.Float32()*4 - 2
		switch flavour {
		case flavSparse:
			zeroShare = 0.5
		case flavDenormal:
			v *= 1e-22
		case flavHuge:
			if r.Float32() < 0.5 {
				v *= 1e30
			} else {
				v *= 1e-30
			}
		case flavNonFinite:
			switch u := r.Float32(); {
			case u < 0.02:
				v = float32(math.NaN())
			case u < 0.04:
				v = float32(math.Inf(1))
			case u < 0.06:
				v = float32(math.Inf(-1))
			}
		}
		if u := r.Float32(); u < zeroShare/2 {
			v = 0
		} else if u < zeroShare {
			v = float32(math.Copysign(0, -1))
		}
		m.Data[i] = v
	}
}

// sameBits reports whether two results are the same float32, bit for
// bit; any NaN equals any NaN (which payload survives an operation with
// two NaN inputs depends on operand order, which Go leaves to the
// compiler).
func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

func checkGEMMParity(t testing.TB, c gemmCase, seed uint64, flavour int, zeroShare float32) {
	t.Helper()
	r := rng.New(seed)
	a, b := c.operands()
	fillFlavour(a, r, flavour, zeroShare)
	fillFlavour(b, r, flavour, zeroShare)
	want, got := New(c.m, c.n), New(c.m, c.n)
	got.Fill(float32(math.NaN())) // every element must be written
	c.run(true, want, a, b)
	c.run(false, got, a, b)
	for i, w := range want.Data {
		if g := got.Data[i]; !sameBits(g, w) {
			t.Fatalf("%v flavour %d seed %d: dst[%d][%d] = %v (%#08x), portable %v (%#08x)",
				c, flavour, seed, i/c.n, i%c.n, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// benchShapes are the products of the four benchmark workloads' layers
// (and the old 128³), as m×k×n of the computation.
var benchShapes = [][3]int{
	{16, 72, 36}, {8, 27, 144}, {4, 1024, 512}, {4, 64, 1024},
	{4, 512, 10}, {4, 32, 128}, {128, 128, 128},
}

func TestGEMMParity(t *testing.T) {
	dims := []int{1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 36, 72, 144}
	if testing.Short() {
		dims = []int{1, 3, 8, 9, 17, 36}
	}
	seed := uint64(1)
	for kind := gemmNN; kind <= gemmTB; kind++ {
		for _, m := range dims {
			for _, k := range dims {
				for _, n := range dims {
					seed++
					flavour := int(seed % numFlavours)
					if flavour == flavDenormal && m*k*n > 1<<15 {
						// Denormal arithmetic traps to microcode;
						// the big products get it from benchShapes.
						flavour = flavSparse
					}
					checkGEMMParity(t, gemmCase{kind, m, k, n}, seed, flavour, 0.1)
				}
			}
		}
		// Every layer product of the benchmark, and its two backward
		// companions, under every flavour.
		for _, s := range benchShapes {
			for _, c := range []gemmCase{{kind, s[0], s[1], s[2]}, {kind, s[1], s[0], s[2]}, {kind, s[0], s[2], s[1]}} {
				for flavour := 0; flavour < numFlavours; flavour++ {
					seed++
					checkGEMMParity(t, c, seed, flavour, 0.1)
				}
			}
		}
	}
}

// TestGEMMDegenerateShapes pins the empty products: no k terms is a
// zero matrix, no rows or columns is nothing to do.
func TestGEMMDegenerateShapes(t *testing.T) {
	for kind := gemmNN; kind <= gemmTB; kind++ {
		for _, s := range [][3]int{{0, 5, 9}, {5, 0, 9}, {5, 9, 0}, {4, 0, 16}} {
			c := gemmCase{kind, s[0], s[1], s[2]}
			a, b := c.operands()
			dst := New(c.m, c.n)
			dst.Fill(7)
			c.run(false, dst, a, b)
			for _, v := range dst.Data {
				if v != 0 {
					t.Fatalf("%v: got %v, want 0", c, v)
				}
			}
		}
	}
}

// TestMatMulNonFinitePropagates: a zero multiplicand does not hide an
// Inf or NaN in the other operand — 0·Inf is NaN from every entry point
// on every path, so a diverged replica cannot be masked by sparsity.
func TestMatMulNonFinitePropagates(t *testing.T) {
	for kind := gemmNN; kind <= gemmTB; kind++ {
		for _, s := range [][3]int{{2, 3, 2}, {4, 16, 16}, {5, 9, 17}} {
			for _, bad := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
				for _, portable := range []bool{false, true} {
					c := gemmCase{kind, s[0], s[1], s[2]}
					a, b := c.operands()
					b.Fill(1)
					// a stays all zero; term k=1 of column 0 is 0·bad.
					if kind == gemmTB {
						b.Set(0, 1, bad)
					} else {
						b.Set(1, 0, bad)
					}
					dst := New(c.m, c.n)
					c.run(portable, dst, a, b)
					for i := 0; i < c.m; i++ {
						if v := dst.At(i, 0); v == v {
							t.Fatalf("%v portable=%v: 0·%v gave dst[%d][0] = %v, want NaN", c, portable, bad, i, v)
						}
						if v := dst.At(i, 1); v != 0 {
							t.Fatalf("%v portable=%v: untouched column got %v", c, portable, v)
						}
					}
				}
			}
		}
	}
}

// TestGEMMStartsFromPlusZero: every entry point sums each output's
// terms from +0, so no output is −0 — not even one whose every term is
// −0 — and each holds the bits of +0 + x. That is what lets nn write a
// weight-gradient product over a gradient pending zero instead of
// adding it to a cleared one. Both paths, every operand flavour.
func TestGEMMStartsFromPlusZero(t *testing.T) {
	forPaths(t, func(t *testing.T) {
		seed := uint64(900)
		for kind := gemmNN; kind <= gemmTB; kind++ {
			for _, s := range [][3]int{{1, 1, 1}, {3, 5, 7}, {4, 9, 17}, {9, 33, 16}, {16, 72, 36}} {
				for flavour := -1; flavour < numFlavours; flavour++ {
					seed++
					c := gemmCase{kind, s[0], s[1], s[2]}
					a, b := c.operands()
					if flavour < 0 { // every term −0·1.5 = −0
						a.Fill(float32(math.Copysign(0, -1)))
						b.Fill(1.5)
					} else {
						r := rng.New(seed)
						fillFlavour(a, r, flavour, 0.3)
						fillFlavour(b, r, flavour, 0.3)
					}
					dst := New(c.m, c.n)
					dst.Fill(float32(math.Copysign(0, -1)))
					c.run(false, dst, a, b)
					sum := make([]float32, len(dst.Data))
					Add(sum, dst.Data)
					for i, x := range dst.Data {
						if math.Signbit(float64(x)) && x == 0 || math.Float32bits(x) != math.Float32bits(sum[i]) {
							t.Fatalf("%v flavour %d: dst[%d] = %v (%#08x), +0 + it = %#08x",
								c, flavour, i, x, math.Float32bits(x), math.Float32bits(sum[i]))
						}
					}
				}
			}
		}
	})
}

func FuzzGEMMParity(f *testing.F) {
	f.Add(uint8(0), uint8(16), uint8(72), uint8(36), uint64(1), uint8(0), uint8(25))
	f.Add(uint8(1), uint8(27), uint8(8), uint8(144), uint64(2), uint8(1), uint8(128))
	f.Add(uint8(2), uint8(8), uint8(144), uint8(27), uint64(3), uint8(4), uint8(10))
	f.Add(uint8(2), uint8(3), uint8(5), uint8(9), uint64(4), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, kind, m, k, n uint8, seed uint64, flavour, zeros uint8) {
		c := gemmCase{gemmKind(kind % 3), int(m), int(k), int(n)}
		checkGEMMParity(t, c, seed, int(flavour%numFlavours), float32(zeros)/255)
	})
}

// BenchmarkGEMM is the `go test -bench` twin of the benchmark's
// tensor.matmul_gflops row: each entry point at each workload shape,
// portable loop and dispatched path side by side.
func BenchmarkGEMM(b *testing.B) {
	for kind := gemmNN; kind <= gemmTB; kind++ {
		for _, s := range benchShapes {
			c := gemmCase{kind, s[0], s[1], s[2]}
			for _, path := range []string{"portable", "dispatched"} {
				b.Run(c.String()+"/"+path, func(b *testing.B) {
					r := rng.New(7)
					x, y := c.operands()
					x.FillNorm(r, 1)
					y.FillNorm(r, 1)
					dst := New(c.m, c.n)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						c.run(path == "portable", dst, x, y)
					}
					flop := 2 * float64(c.m) * float64(c.k) * float64(c.n) * float64(b.N)
					b.ReportMetric(flop/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
				})
			}
		}
	}
}
