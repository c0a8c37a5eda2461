package rng

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestStateRoundTrip(t *testing.T) {
	r := New(42)
	for i := 0; i < 1000; i++ {
		r.Uint64()
	}
	saved := r.State()
	want := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	r.SetState(saved)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d after SetState: got %d, want %d", i, got, w)
		}
	}
	// SetState(seed) must match New(seed) exactly.
	var a RNG
	a.SetState(7)
	b := New(7)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("SetState(seed) diverges from New(seed)")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	f1 := parent.Fork(1)
	f2 := parent.Fork(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if f1.Uint64() == f2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d times in 1000 draws", same)
	}
}

func TestForkDeterminism(t *testing.T) {
	a := New(9).Fork(3)
	b := New(9).Fork(3)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("fork streams diverged at step %d", i)
		}
	}
}

func TestFloat32Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		v := r.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(2)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := New(4)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := float64(r.Norm(1))
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("variance = %v, want ~1", variance)
	}
}

func TestNormStdScaling(t *testing.T) {
	r := New(5)
	const n = 100000
	var sumSq float64
	for i := 0; i < n; i++ {
		v := float64(r.Norm(0.5))
		sumSq += v * v
	}
	if got := sumSq / n; math.Abs(got-0.25) > 0.01 {
		t.Errorf("variance = %v, want ~0.25", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length = %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	r := New(8)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle altered elements: %v", xs)
	}
}

func TestUniformityRough(t *testing.T) {
	// A crude chi-square-ish check over 16 buckets.
	r := New(10)
	const n = 160000
	var counts [16]int
	for i := 0; i < n; i++ {
		counts[r.Intn(16)]++
	}
	want := n / 16
	for b, c := range counts {
		if math.Abs(float64(c-want)) > 0.05*float64(want) {
			t.Errorf("bucket %d count %d deviates >5%% from %d", b, c, want)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm(1)
	}
}

// TestReplicaMatchesMath holds Norm's FMA-free logUnit and cosTurn to
// amd64's math.Log and math.Cos bit for bit over Norm's whole domain:
// u1 in [2^−53, 1) and x = 2π·u2 in [0, 2π). Random arguments of both
// kinds (the values UnitFloat64 yields and arbitrary float64s in range),
// each binade's two ends, the neighbours of √2/2 (where logUnit takes
// the assembly's adjust), and the few float64s on either side of every
// octant boundary of cosTurn's reduction. Elsewhere the math package
// may fuse its multiply-adds, which is what the replicas exist to avoid.
func TestReplicaMatchesMath(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the replicas reproduce amd64's math.Log and math.Cos")
	}
	checkLog := func(u float64) {
		t.Helper()
		if got, want := logUnit(u), math.Log(u); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("logUnit(%v = %#x) = %#x, math.Log %#x", u, math.Float64bits(u), math.Float64bits(got), math.Float64bits(want))
		}
	}
	checkCos := func(x float64) {
		t.Helper()
		if x < 0 || x >= 2*math.Pi {
			return
		}
		if got, want := cosTurn(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cosTurn(%v = %#x) = %#x, math.Cos %#x", x, math.Float64bits(x), math.Float64bits(got), math.Float64bits(want))
		}
	}
	r := New(11)
	for range 1 << 20 {
		u := r.Float64()
		if u > 0 {
			checkLog(u)
		}
		checkCos(2 * math.Pi * r.Float64())
		// Arbitrary float64s: a random binade of [2^−53, 1) with random
		// mantissa bits, and a random point of [0, 2π) at full precision.
		e := uint64(1022 - r.Intn(53))
		checkLog(math.Float64frombits(e<<52 | r.Uint64()>>12))
		checkCos(math.Float64frombits(math.Float64bits(2*math.Pi) - r.Uint64()%(1<<62)))
	}
	for e := -53; e < 0; e++ {
		lo := math.Ldexp(1, e)
		hi := math.Nextafter(2*lo, 0)
		for _, u := range []float64{lo, math.Nextafter(lo, 1), math.Nextafter(hi, 0), hi} {
			checkLog(u)
		}
	}
	for u := math.Nextafter(math.Sqrt2/2, 0); u <= math.Nextafter(math.Sqrt2/2, 1); u = math.Nextafter(u, 1) {
		checkLog(u)
		checkLog(u / 4)
	}
	checkCos(0)
	checkCos(math.Nextafter(2*math.Pi, 0))
	for k := 1; k <= 8; k++ {
		// The smallest x whose x·(4/π) truncates to k, by bisection on
		// the float64 order, then a few neighbours either side.
		lo, hi := math.Float64bits(float64(k-1)*math.Pi/4), math.Float64bits(float64(k+1)*math.Pi/4)
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if uint64(math.Float64frombits(mid)*(4/math.Pi)) >= uint64(k) {
				hi = mid
			} else {
				lo = mid
			}
		}
		for d := -4; d <= 4; d++ {
			checkCos(math.Float64frombits(uint64(int64(hi) + int64(d))))
		}
		x := float64(k) * math.Pi / 4
		checkCos(math.Nextafter(x, 0))
		checkCos(x)
		checkCos(math.Nextafter(x, 8))
	}
}

// TestNormPinned pins a few of Norm's outputs, so that a change to the
// replicas or to the draw order shows even on hosts without amd64's
// math package to compare with.
func TestNormPinned(t *testing.T) {
	r := New(1)
	var got []uint32
	for range 8 {
		got = append(got, math.Float32bits(r.Norm(1)))
	}
	// Generated with math.Log and math.Cos on amd64, before the replicas.
	want := []uint32{0xbce76c03, 0xbe6963bc, 0x3dd32159, 0xbf019697, 0x3edd41e1, 0xbf87dd59, 0xbf9dc9b1, 0x3f244626}
	if !slices.Equal(got, want) {
		t.Fatalf("Norm(1) from seed 1: %#08x, want %#08x", got, want)
	}
	if s := r.State(); s != 0xe3779b97f4a7c151 {
		t.Fatalf("state after 8 draws: %#x", s)
	}
}
