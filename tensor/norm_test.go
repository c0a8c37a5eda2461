package tensor

import (
	"fmt"
	"math"
	"testing"

	"repro/rng"
)

// normStds are the scales the parity tests run at: the ordinary ones,
// 0 and a negative, and the specials whose product with a draw must
// round as the scalar's does.
var normStds = []float32{1, 0.1, 3, 0, -1, float32(math.Inf(1)), float32(math.NaN()), math.Float32frombits(0x00012345)}

// checkFillNorm runs FillNorm over n elements starting off floats into
// their backing array, from state, and holds its bits and the state it
// leaves to the rng.Norm loop's.
func checkFillNorm(t testing.TB, state uint64, n, off int, std float32) {
	t.Helper()
	want := make([]float32, n)
	ref := rng.New(state)
	for i := range want {
		want[i] = ref.Norm(std)
	}
	got := make([]float32, off+n+1)[off : off+n]
	r := rng.New(state)
	FillNorm(got, r, std)
	for i := range want {
		if !sameRaw(got[i], want[i]) {
			t.Fatalf("state %#x n=%d off=%d std=%v: element %d is %#08x, rng.Norm %#08x",
				state, n, off, std, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
	if r.State() != ref.State() {
		t.Fatalf("state %#x n=%d std=%v: FillNorm left the stream at %#x, rng.Norm at %#x", state, n, std, r.State(), ref.State())
	}
}

// TestFillNormParity: every length 1–70 (whole groups and every tail)
// at four alignments from several seeds, each scale of normStds, and
// one run of 2^22 draws, on both paths.
func TestFillNormParity(t *testing.T) {
	forPaths(t, func(t *testing.T) {
		for seed := uint64(0); seed < 6; seed++ {
			state := rng.New(seed).Fork(7).State()
			for n := 1; n <= 70; n++ {
				for off := range 4 {
					checkFillNorm(t, state, n, off, 1)
				}
			}
			for _, std := range normStds {
				checkFillNorm(t, state, 37, 1, std)
			}
		}
		checkFillNorm(t, 1, 1<<21, 0, 0.5) // two draws an element
	})
}

// unmix inverts splitmix64's output mix: the splitmix64 step from
// unmix(b) − γ returns b. Each xorshift is undone by iterating it, each
// multiplier by its inverse mod 2^64.
func unmix(b uint64) uint64 {
	unxorshift := func(y uint64, k uint) uint64 {
		x := y
		for range 64 / k {
			x = y ^ x>>k
		}
		return x
	}
	inverse := func(c uint64) uint64 { // c·x ≡ 1 mod 2^64, for odd c
		x := c
		for range 6 {
			x *= 2 - c*x
		}
		return x
	}
	z := unxorshift(b, 31)
	z *= inverse(0x94d049bb133111eb)
	z = unxorshift(z, 27)
	z *= inverse(0xbf58476d1ce4e5b9)
	return unxorshift(z, 30)
}

// stateForDraw returns the state from which the splitmix64 stream's
// draw d (1-based) has the output b.
func stateForDraw(b uint64, d int) uint64 {
	gamma, _ := rng.Step(0)
	return unmix(b) - gamma*uint64(d)
}

// TestFillNormConstructedStates places chosen draws where random seeds
// never put them, the stream positioned by inverting splitmix64:
//
//   - u1 = 0 on each lane of the first, second or third group of a run
//     (draw 2k+1 of that group). The kernel must stop there and rng.Norm
//     redraw u1 as it always does, one draw more in all.
//   - u1 ∈ {2^−53, 1−2^−53}, the ends of the logarithm's domain.
//   - u2 on the float64s either side of every octant boundary of the
//     cosine's reduction.
func TestFillNormConstructedStates(t *testing.T) {
	if _, b := rng.Step(stateForDraw(12345, 1)); b != 12345 {
		t.Fatalf("unmix does not invert splitmix64: %#x", b)
	}
	gamma, _ := rng.Step(0)
	forPaths(t, func(t *testing.T) {
		for group := range 3 {
			for lane := range 4 {
				for _, n := range []int{4*group + 4, 13} {
					d := 8*group + 2*lane + 1
					state := stateForDraw(0x7ff, d) // r>>11 = 0: u1 = 0
					checkFillNorm(t, state, n, 0, 1)
					if d <= 2*n {
						r := rng.New(state)
						FillNorm(make([]float32, n), r, 1)
						if want := state + gamma*uint64(2*n+1); r.State() != want {
							t.Fatalf("u1 = 0 at draw %d of %d elements: stream at %#x, want one redraw, %#x", d, n, r.State(), want)
						}
					}
				}
			}
		}
		for _, u := range []uint64{1, 1<<53 - 1} {
			for lane := range 4 {
				checkFillNorm(t, stateForDraw(u<<11|0x5a5, 2*lane+1), 8, 0, 1)
			}
		}
		for k := 1; k <= 8; k++ {
			// u2 = m·2^−53 around x·(4/π) = k, with x = 2π·u2.
			m := uint64(float64(k) / 8 * (1 << 53))
			for dm := -3; dm <= 3; dm++ {
				u := m + uint64(dm)
				if u >= 1<<53 {
					continue
				}
				for lane := range 4 {
					checkFillNorm(t, stateForDraw(u<<11, 2*lane+2), 4, 0, 1)
				}
			}
		}
	})
}

// FuzzFillNormParity: any stream position, length, alignment and scale.
func FuzzFillNormParity(f *testing.F) {
	f.Add(uint64(1), uint16(9), uint8(0), uint32(0x3f800000))
	f.Add(uint64(0xdeadbeef), uint16(300), uint8(3), uint32(0x7fc00000))
	f.Add(stateForDraw(0, 5), uint16(12), uint8(1), uint32(0xbf800000))
	f.Fuzz(func(t *testing.T, state uint64, n uint16, off uint8, stdBits uint32) {
		for _, avx2 := range []bool{true, false} {
			if avx2 && !HasAVX2() {
				continue
			}
			func() {
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = avx2
				checkFillNorm(t, state, int(n%2048), int(off%8), math.Float32frombits(stdBits))
			}()
		}
	})
}

// BenchmarkFillNorm times the rng.Norm loop (portable) and FillNorm as
// dispatched, in ns per draw.
func BenchmarkFillNorm(b *testing.B) {
	const n = 1 << 16
	dst := make([]float32, n)
	for _, path := range []string{"portable", "dispatched"} {
		b.Run(fmt.Sprintf("%s/n=%d", path, n), func(b *testing.B) {
			if path == "portable" {
				defer func(was bool) { useAVX2 = was }(useAVX2)
				useAVX2 = false
			}
			r := rng.New(1)
			for range b.N {
				FillNorm(dst, r, 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/draw")
		})
	}
}
