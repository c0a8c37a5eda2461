package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/rng"
)

// The vector-kernel parity suite: every exported kernel against the
// portable loop behind it, on float bits, over every tail length, four
// start alignments, the operand flavours of the GEMM suite and the
// special values listed below. On amd64 with AVX2 that is kernel
// against reference (gemm_amd64_test.go proves the kernels ran); the
// suite runs a second time with the switch off.

// vecOp is one exported kernel: run applies it to (w, v, g) through the
// dispatcher or through the portable loop, with coefficients a, μ, η
// and λ. Add uses only w and g, Scale only w and a.
type vecOp struct {
	name string
	run  func(portable bool, w, v, g []float32, a, mu, eta, lambda float32)
}

var vecOps = []vecOp{
	{"add", func(portable bool, w, _, g []float32, _, _, _, _ float32) {
		if portable {
			addGo(w, g)
		} else {
			Add(w, g)
		}
	}},
	{"scale", func(portable bool, w, _, _ []float32, a, _, _, _ float32) {
		if portable {
			scaleGo(w, a)
		} else {
			Scale(w, a)
		}
	}},
	{"momentum", func(portable bool, w, v, g []float32, a, mu, eta, _ float32) {
		momentumStep(portable, w, v, g, a, mu, eta, 0)
	}},
	{"momentum-decay", momentumStep},
}

// momentumStep runs MomentumStep, or the portable loop it dispatches
// to for this λ: λ = 0 is the loop without the decay term.
func momentumStep(portable bool, w, v, g []float32, a, mu, eta, lambda float32) {
	switch {
	case !portable:
		MomentumStep(w, v, g, a, mu, eta, lambda)
	case lambda == 0:
		momentumGo(w, v, g, a, mu, eta)
	default:
		momentumDecayGo(w, v, g, a, mu, eta, lambda)
	}
}

// vecSpecials are planted among the operands of the parity table: NaN,
// both infinities, both zeros, denormals and 1e±30 magnitudes.
var vecSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 3e-39, -1.2e-38,
	1e30, -1e30, 1e-30, -1e-30, math.MaxFloat32, -math.MaxFloat32,
}

// vecCoefficients are (a, μ, η, λ) sets: the engine's 1/K averages and
// 1, the benchmark's rates, and coefficients that make products
// overflow, underflow into denormals or vanish.
var vecCoefficients = [][4]float32{
	{1, 0.9, 0.05, 5e-4},
	{0.5, 0.9, 0.08, 1e-4},
	{1 / float32(3), 0.9, 0.1, 0.5},
	{0.25, 0, 1, 1},
	{1e30, 0.9, 1e10, 1e30},
	{1e-30, 1e-10, 1e-30, 1e-20},
	{float32(math.Copysign(0, -1)), -0.9, -0.05, -5e-4},
}

// vecOperands returns w, v and g of length n starting off floats into
// their backing arrays, filled with the flavour's values; with
// specials, every fifth element of each is one of vecSpecials.
func vecOperands(r *rng.RNG, n, off, flavour int, specials bool) (w, v, g []float32) {
	bufs := make([][]float32, 3)
	for i := range bufs {
		m := New(1, n+off)
		fillFlavour(m, r, flavour, 0.1)
		if specials {
			for j := off; j < n+off; j += 5 {
				m.Data[j] = vecSpecials[r.Intn(len(vecSpecials))]
			}
		}
		bufs[i] = m.Data[off:]
	}
	return bufs[0], bufs[1], bufs[2]
}

// checkVecParity runs op through the dispatcher and through the portable
// loop on copies of the same operands and fails on the first element of
// w, v or g whose bits differ.
func checkVecParity(t testing.TB, op vecOp, w, v, g []float32, c [4]float32) {
	t.Helper()
	want := [3][]float32{clone(w), clone(v), clone(g)}
	got := [3][]float32{clone(w), clone(v), clone(g)}
	op.run(true, want[0], want[1], want[2], c[0], c[1], c[2], c[3])
	op.run(false, got[0], got[1], got[2], c[0], c[1], c[2], c[3])
	for s, name := range []string{"w", "v", "g"} {
		for i := range want[s] {
			if x, y := got[s][i], want[s][i]; !sameBits(x, y) {
				t.Fatalf("%s n=%d coefficients %v: %s[%d] = %v (%#08x), portable %v (%#08x); inputs w=%v v=%v g=%v",
					op.name, len(w), c, name, i, x, math.Float32bits(x), y, math.Float32bits(y), w[i], v[i], g[i])
			}
		}
	}
}

func clone(x []float32) []float32 { return append([]float32(nil), x...) }

func TestVecParity(t *testing.T) {
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = avx2
			r := rng.New(11)
			for _, op := range vecOps {
				for n := 0; n <= 40; n++ {
					for off := 0; off < 4; off++ {
						for ci, c := range vecCoefficients {
							flavour := (n + off + ci) % numFlavours
							w, v, g := vecOperands(r, n, off, flavour, ci%2 == 0)
							checkVecParity(t, op, w, v, g, c)
						}
					}
				}
				// Past one 32-element block, and across the chunk
				// boundary of vec_amd64.go's dispatcher.
				for _, n := range []int{1000, 1 << 16, 1<<16 + 8, 1<<17 + 13} {
					w, v, g := vecOperands(r, n, 1, flavNormal, true)
					checkVecParity(t, op, w, v, g, vecCoefficients[2])
				}
			}
		})
	}
}

// TestMaxAbsParity holds MaxAbs to its portable loop on float bits:
// every tail length at four alignments, NaN and ±Inf among the
// operands (a NaN must be skipped, an Inf is the maximum), and lengths
// past one block and across the dispatcher's chunk boundary.
func TestMaxAbsParity(t *testing.T) {
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = avx2
			r := rng.New(12)
			check := func(x []float32) {
				t.Helper()
				got, want := MaxAbs(x), maxAbsGo(x, 0)
				if !sameBits(got, want) || got != got {
					t.Fatalf("n=%d: MaxAbs = %v (%#08x), portable %v (%#08x)", len(x), got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
			for n := 0; n <= 40; n++ {
				for off := 0; off < 4; off++ {
					for flavour := 0; flavour < numFlavours; flavour++ {
						x, _, _ := vecOperands(r, n, off, flavour, flavour%2 == 0)
						check(x)
						// The maximum in every position, once as a NaN's
						// neighbour.
						for i := range x {
							y := clone(x)
							y[i] = -7e37
							check(y)
						}
					}
				}
			}
			for _, n := range []int{1000, 1 << 16, 1<<16 + 8, 1<<17 + 13} {
				x, _, _ := vecOperands(r, n, 1, flavNormal, true)
				check(x)
				nan := make([]float32, n)
				for i := range nan {
					nan[i] = float32(math.NaN())
				}
				nan[n-9] = -2
				check(nan)
			}
		})
	}
}

// TestMomentumStepZeroDecayKeepsSigns pins why λ = 0 is its own loop:
// adding 0·w would turn a −0 gradient into +0 and, against an infinite
// weight, into NaN.
func TestMomentumStepZeroDecayKeepsSigns(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	for n := 1; n <= 17; n += 8 {
		w, v, g := make([]float32, n), make([]float32, n), make([]float32, n)
		for i := range w {
			w[i], g[i] = float32(math.Inf(1)), negZero
		}
		MomentumStep(w, v, g, 1, 0.9, 0.1, 0)
		for i := range w {
			if !math.IsInf(float64(w[i]), 1) || math.Float32bits(v[i]) != 0 {
				t.Fatalf("n=%d: element %d: w=%v v=%v (%#08x), want w=+Inf v=+0", n, i, w[i], v[i], math.Float32bits(v[i]))
			}
		}
	}
}

func TestVecLengthMismatchPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Add(make([]float32, 3), make([]float32, 4)) },
		func() { MomentumStep(make([]float32, 3), make([]float32, 3), make([]float32, 2), 1, 0.9, 0.1, 0) },
		func() { MomentumStep(make([]float32, 3), make([]float32, 4), make([]float32, 3), 1, 0.9, 0.1, 1) },
		func() { Sigmoid(make([]float32, 8), make([]float32, 9)) },
		func() { Tanh(make([]float32, 9), make([]float32, 8)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("length mismatch accepted")
				}
			}()
			f()
		}()
	}
}

func FuzzUpdateParity(f *testing.F) {
	f.Add(uint8(2), uint8(37), uint8(1), uint64(1), uint8(0), math.Float32bits(0.5), math.Float32bits(0.9), math.Float32bits(0.05), math.Float32bits(5e-4))
	f.Add(uint8(3), uint8(8), uint8(0), uint64(2), uint8(4), math.Float32bits(1), math.Float32bits(0.9), math.Float32bits(0.1), math.Float32bits(1e30))
	f.Add(uint8(0), uint8(255), uint8(3), uint64(3), uint8(2), math.Float32bits(1), uint32(0), uint32(0), uint32(0))
	f.Add(uint8(1), uint8(15), uint8(2), uint64(4), uint8(3), math.Float32bits(1e-30), uint32(0), uint32(0), uint32(0))
	f.Fuzz(func(t *testing.T, op, n, off uint8, seed uint64, flavour uint8, a, mu, eta, lambda uint32) {
		r := rng.New(seed)
		w, v, g := vecOperands(r, int(n), int(off%4), int(flavour%numFlavours), flavour >= 128)
		c := [4]float32{math.Float32frombits(a), math.Float32frombits(mu), math.Float32frombits(eta), math.Float32frombits(lambda)}
		checkVecParity(t, vecOps[int(op)%len(vecOps)], w, v, g, c)
	})
}

// BenchmarkVec is the update of the MLP workloads' 596 k parameters
// (64·1024 + 1024 + 1024·512 + 512 + 512·10 + 10), one momentum step
// over every tensor, portable loop and dispatched path side by side,
// plus Add over the same elements.
func BenchmarkVec(b *testing.B) {
	sizes := []int{64 * 1024, 1024, 1024 * 512, 512, 512 * 10, 10}
	r := rng.New(3)
	var ws, vs, gs [][]float32
	elems := 0
	for _, n := range sizes {
		w, v, g := vecOperands(r, n, 0, flavNormal, false)
		ws, vs, gs = append(ws, w), append(vs, v), append(gs, g)
		elems += n
	}
	for _, op := range vecOps {
		for _, path := range []string{"portable", "dispatched"} {
			b.Run(op.name+"/"+path, func(b *testing.B) {
				b.SetBytes(int64(elems) * 4)
				for i := 0; i < b.N; i++ {
					for j := range ws {
						op.run(path == "portable", ws[j], vs[j], gs[j], 1, 0.9, 1e-9, 1e-9)
					}
				}
			})
		}
	}
}
