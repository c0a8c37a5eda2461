package tensor

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/rng"
)

var exhaustive = flag.Bool("exhaustive", false,
	"run TestActivationExhaustive: the activation kernels against the scalar on all 2^32 float32 inputs")

// activation is one exported activation kernel and its portable loop.
type activation struct {
	name     string
	run      func(dst, src []float32)
	portable func(dst, src []float32)
}

var activations = []activation{
	{"sigmoid", Sigmoid, sigmoidGo},
	{"tanh", Tanh, tanhGo},
}

// activationEdges are the inputs where the kernels could part from the
// scalar: both zeros, denormals, both infinities, NaNs with several
// payloads, tanh's switch at ±0.625 and its float32 neighbours, the
// kernels' clamps (sigmoid's ±40, ±104, ±105 and the rounding of
// 1/(1+e^v) to the smallest denormals around 103.97; tanh's 20), where
// float32 tanh saturates (≈ 9.01) and the scalar's own cut (44.01), and
// math.Exp's float32 and float64 overflow points (88.72, 709.78).
var activationEdges = func() []float32 {
	bits := []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff, 0x00400000,
		0x7f800000, 0xff800000,
		0x7fc00000, 0xffc00000, 0x7f800001, 0xff800001, 0x7fbfffff, 0x7fffffff, 0xffffffff,
	}
	edges := make([]float32, 0, 96)
	for _, b := range bits {
		edges = append(edges, math.Float32frombits(b))
	}
	for _, v := range []float32{0.625, 40, 104, 103.97, 105, 100, 9.01, 9.0109, 20, 44.01, 44.0148, 88.72, 709.78, 1, 1e-20, math.MaxFloat32} {
		for _, w := range []float32{v, math.Nextafter32(v, 0), math.Nextafter32(v, float32(math.Inf(1)))} {
			edges = append(edges, w, -w)
		}
	}
	return edges
}()

// checkActivation fails on the first element where got, computed from
// src, is not the portable loop's result: the same bits, or any NaN for
// a NaN input (the scalar returns NaN for NaN alone).
func checkActivation(t testing.TB, a activation, src, got []float32) {
	t.Helper()
	want := make([]float32, len(src))
	a.portable(want, src)
	for i, v := range src {
		if sameBits(got[i], want[i]) {
			continue
		}
		t.Fatalf("%s n=%d: element %d of %v (%#08x) gave %v (%#08x), scalar %v (%#08x)",
			a.name, len(src), i, v, math.Float32bits(v), got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
	}
}

// TestActivationParity holds Sigmoid and Tanh to the scalar on raw
// bits: every length 0–40 at four start alignments with every edge
// value in every lane, every 4099th float32 bit pattern, lengths
// across the dispatcher's chunk boundary, and in place (dst == src).
// On amd64 with AVX2 it runs once on the kernels and once with the
// switch off.
func TestActivationParity(t *testing.T) {
	var strided []float32
	for b := uint64(0); b < 1<<32; b += 4099 {
		strided = append(strided, math.Float32frombits(uint32(b)))
	}
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = avx2
			for _, a := range activations {
				for n := 0; n <= 40; n++ {
					for off := 0; off < 4; off++ {
						for rot := range activationEdges {
							src := make([]float32, off+n)[off:]
							for i := range src {
								src[i] = activationEdges[(i+rot)%len(activationEdges)]
							}
							got := make([]float32, off+n)[off:]
							a.run(got, src)
							checkActivation(t, a, src, got)
						}
					}
				}
				for off := 0; off < 4; off++ {
					src := strided[off:]
					got := make([]float32, len(src))
					a.run(got, src)
					checkActivation(t, a, src, got)
				}
				r := rng.New(21)
				for _, n := range []int{1 << 16, 1<<16 + 8, 1<<17 + 13} {
					src := make([]float32, n)
					for i := range src {
						src[i] = r.Norm(30)
					}
					got := clone(src)
					a.run(got, got)
					checkActivation(t, a, src, got)
				}
			}
		})
	}
}

// TestActivationExhaustive is the proof behind the kernels' contract:
// each kernel against the scalar on all 2^32 float32 inputs, counting
// every input that differs (about 90 s on two cores; -exhaustive runs
// it).
func TestActivationExhaustive(t *testing.T) {
	if !*exhaustive {
		t.Skip("all 2^32 inputs: run with -exhaustive")
	}
	if !useAVX2 {
		t.Log("CPU without AVX2: the scalar is compared with itself")
	}
	const block = 1 << 16
	for _, a := range activations {
		var (
			mu         sync.Mutex
			mismatches uint64
			first      []string
			next       = make(chan uint64)
			wg         sync.WaitGroup
		)
		for w := 0; w < runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src, got, want := make([]float32, block), make([]float32, block), make([]float32, block)
				for base := range next {
					for i := range src {
						src[i] = math.Float32frombits(uint32(base) + uint32(i))
					}
					a.run(got, src)
					a.portable(want, src)
					for i, v := range src {
						if sameBits(got[i], want[i]) {
							continue
						}
						mu.Lock()
						if mismatches++; len(first) < 10 {
							first = append(first, fmt.Sprintf("%v (%#08x): %#08x, scalar %#08x",
								v, math.Float32bits(v), math.Float32bits(got[i]), math.Float32bits(want[i])))
						}
						mu.Unlock()
					}
				}
			}()
		}
		for base := uint64(0); base < 1<<32; base += block {
			next <- base
		}
		close(next)
		wg.Wait()
		t.Logf("%s: %d mismatches over all 2^32 float32 inputs", a.name, mismatches)
		for _, m := range first {
			t.Errorf("%s: %s", a.name, m)
		}
	}
}

// FuzzActivationParity feeds raw float bits, any length and start
// offset, to both kernels.
func FuzzActivationParity(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0x20, 0x3f})
	f.Add(uint8(1), uint8(3), make([]byte, 4*37))
	f.Fuzz(func(t *testing.T, which, off uint8, raw []byte) {
		a := activations[int(which)%len(activations)]
		o := int(off % 8)
		buf := make([]float32, o+len(raw)/4)
		src := buf[o:]
		for i := range src {
			b := raw[4*i:]
			src[i] = math.Float32frombits(uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24)
		}
		got := make([]float32, len(buf))[o:]
		a.run(got, src)
		checkActivation(t, a, src, got)
	})
}

// gateGradOperands returns the operands of LSTMGateGrads for hidden
// size h, each starting off floats into its backing array: dz (4h),
// then dc, dh, i, f, g, o, tc and cp. The gates and tc lie in (−1, 1)
// as an LSTM makes them; with specials, every fifth element of each
// operand is one of vecSpecials instead.
func gateGradOperands(r *rng.RNG, h, off int, specials bool) [][]float32 {
	ops := make([][]float32, 9)
	for k := range ops {
		n := h
		if k == 0 {
			n = 4 * h
		}
		ops[k] = make([]float32, off+n)[off:]
		for j := range ops[k] {
			switch {
			case specials && j%5 == 0:
				ops[k][j] = vecSpecials[r.Intn(len(vecSpecials))]
			case k >= 3 && k <= 7:
				ops[k][j] = 2*r.Float32() - 1
			default:
				ops[k][j] = r.Norm(1)
			}
		}
	}
	return ops
}

// checkGateGrads runs LSTMGateGrads and its portable loop on copies of
// ops and fails on the first element of dz or dc whose bits differ.
func checkGateGrads(t testing.TB, ops [][]float32) {
	t.Helper()
	h := len(ops[1])
	want, got := make([][]float32, len(ops)), make([][]float32, len(ops))
	for k := range ops {
		want[k], got[k] = clone(ops[k]), clone(ops[k])
	}
	w := want
	lstmGateGradsGo(w[0][:h], w[0][h:2*h], w[0][2*h:3*h], w[0][3*h:], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8])
	LSTMGateGrads(got[0], got[1], got[2], got[3], got[4], got[5], got[6], got[7], got[8])
	for k, name := range []string{"dz", "dc"} {
		for j := range want[k] {
			if !sameBits(got[k][j], want[k][j]) {
				t.Fatalf("h=%d: %s[%d] = %v (%#08x), portable %v (%#08x)",
					h, name, j, got[k][j], math.Float32bits(got[k][j]), want[k][j], math.Float32bits(want[k][j]))
			}
		}
	}
}

// TestLSTMGateGradsParity holds LSTMGateGrads to its portable loop on
// float bits: every hidden size 0–40 at four start alignments, with
// and without special values, and a size past the chunk boundary.
func TestLSTMGateGradsParity(t *testing.T) {
	for _, avx2 := range []bool{true, false} {
		if avx2 && !useAVX2 {
			continue
		}
		t.Run(fmt.Sprintf("avx2=%v", avx2), func(t *testing.T) {
			defer func(was bool) { useAVX2 = was }(useAVX2)
			useAVX2 = avx2
			r := rng.New(31)
			for h := 0; h <= 40; h++ {
				for off := 0; off < 4; off++ {
					checkGateGrads(t, gateGradOperands(r, h, off, false))
					checkGateGrads(t, gateGradOperands(r, h, off, true))
				}
			}
			checkGateGrads(t, gateGradOperands(r, 1<<16+13, 1, true))
		})
	}
}

func TestLSTMGateGradsLengthMismatchPanics(t *testing.T) {
	r := rng.New(32)
	for k := 0; k < 9; k++ {
		ops := gateGradOperands(r, 8, 0, false)
		ops[k] = ops[k][1:]
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("operand %d one short accepted", k)
				}
			}()
			LSTMGateGrads(ops[0], ops[1], ops[2], ops[3], ops[4], ops[5], ops[6], ops[7], ops[8])
		}()
	}
}

// FuzzLSTMGateGradsParity is the gate-gradient kernel against its
// portable loop beyond the parity table: any hidden size, alignment
// and seed, special values or not.
func FuzzLSTMGateGradsParity(f *testing.F) {
	f.Add(uint8(32), uint8(0), uint64(1), false)
	f.Add(uint8(37), uint8(3), uint64(2), true)
	f.Fuzz(func(t *testing.T, h, off uint8, seed uint64, specials bool) {
		checkGateGrads(t, gateGradOperands(rng.New(seed), int(h), int(off%4), specials))
	})
}

// BenchmarkSigmoid and BenchmarkTanh time the kernel and the scalar
// loop at an LSTM gate's width (32) and a long row (4096), in
// ns/element, on inputs of a gate pre-activation's spread.
func BenchmarkSigmoid(b *testing.B) { benchActivation(b, activations[0]) }

func BenchmarkTanh(b *testing.B) { benchActivation(b, activations[1]) }

func benchActivation(b *testing.B, a activation) {
	r := rng.New(5)
	for _, n := range []int{32, 4096} {
		src, dst := make([]float32, n), make([]float32, n)
		for i := range src {
			src[i] = r.Norm(3)
		}
		for _, path := range []string{"kernel", "scalar"} {
			run := a.run
			if path == "scalar" {
				run = a.portable
			}
			b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/element")
			})
		}
	}
}
