package quant

import (
	"math"
	"testing"

	"repro/rng"
)

// TestQSGDUnbiased: E[Decode(Encode(v))] = v — the defining property of
// QSGD (paper §2.3: "the value is preserved in expectation").
func TestQSGDUnbiased(t *testing.T) {
	r := rng.New(20)
	const n, trials = 128, 4000
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	for _, c := range []QSGD{
		NewQSGD(2, 128, MaxNorm),
		NewQSGD(4, 512, MaxNorm),
		NewQSGD(4, 512, TwoNorm),
		NewQSGDScheme(4, 128, MaxNorm, Uniform),
	} {
		sum := make([]float64, n)
		dst := make([]float32, n)
		enc := c.NewEncoder(n, shape, 777)
		for trial := 0; trial < trials; trial++ {
			wire := enc.Encode(src)
			if err := c.Decode(wire, n, shape, dst); err != nil {
				t.Fatal(err)
			}
			for i, v := range dst {
				sum[i] += float64(v)
			}
		}
		// Standard error of the mean shrinks as 1/sqrt(trials); the
		// per-element variance is bounded by scale², so a tolerance of a
		// few SEM at scale ~3 is safe.
		for i := range sum {
			mean := sum[i] / trials
			if math.Abs(mean-float64(src[i])) > 0.15 {
				t.Fatalf("%s: element %d biased: mean %v want %v",
					c.Name(), i, mean, src[i])
			}
		}
	}
}

// TestQSGDValuesOnGrid: decoded values lie exactly on the level grid
// scale·k/s.
func TestQSGDValuesOnGrid(t *testing.T) {
	r := rng.New(21)
	c := NewQSGD(4, 64, MaxNorm)
	const n = 64
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	wire := c.NewEncoder(n, shape, 5).Encode(src)
	dst := make([]float32, n)
	if err := c.Decode(wire, n, shape, dst); err != nil {
		t.Fatal(err)
	}
	scale := float64(bucketScale(src, MaxNorm))
	s := float64(c.Levels())
	for i, v := range dst {
		k := float64(v) / scale * s
		if math.Abs(k-math.Round(k)) > 1e-3 {
			t.Fatalf("element %d = %v not on grid (k=%v)", i, v, k)
		}
	}
}

// TestQSGDMagnitudeBounded: |decoded| ≤ scale under max-norm.
func TestQSGDMagnitudeBounded(t *testing.T) {
	r := rng.New(22)
	for _, bits := range []int{2, 4, 8, 16} {
		c := NewQSGD(bits, 128, MaxNorm)
		const n = 128
		shape := Shape{Rows: n, Cols: 1}
		src := randVec(r, n)
		scale := bucketScale(src, MaxNorm)
		wire := c.NewEncoder(n, shape, 3).Encode(src)
		dst := make([]float32, n)
		if err := c.Decode(wire, n, shape, dst); err != nil {
			t.Fatal(err)
		}
		for i, v := range dst {
			if math.Abs(float64(v)) > float64(scale)*(1+1e-6) {
				t.Fatalf("bits=%d: element %d = %v exceeds scale %v", bits, i, v, scale)
			}
		}
	}
}

// TestQSGDVarianceDecreasesWithBits: more bits, less quantisation noise.
// This is the mechanism behind the paper's accuracy findings (2-bit
// degrades, 4/8-bit match full precision).
func TestQSGDVarianceDecreasesWithBits(t *testing.T) {
	r := rng.New(23)
	const n = 4096
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	var prev float64 = math.Inf(1)
	for _, bits := range []int{2, 4, 8, 16} {
		c := NewQSGD(bits, 512, MaxNorm)
		wire := c.NewEncoder(n, shape, 9).Encode(src)
		dst := make([]float32, n)
		if err := c.Decode(wire, n, shape, dst); err != nil {
			t.Fatal(err)
		}
		var mse float64
		for i := range src {
			d := float64(src[i] - dst[i])
			mse += d * d
		}
		mse /= n
		if mse >= prev {
			t.Fatalf("bits=%d: MSE %v did not decrease from %v", bits, mse, prev)
		}
		prev = mse
	}
	// 16-bit should be essentially lossless at this scale.
	if prev > 1e-6 {
		t.Fatalf("16-bit MSE too high: %v", prev)
	}
}

// TestQSGDVarianceDecreasesWithSmallerBucket: smaller buckets mean finer
// scales, hence lower error — the bucket-size accuracy lever (§5.1
// "Impact of Bucket Size").
func TestQSGDVarianceDecreasesWithSmallerBucket(t *testing.T) {
	r := rng.New(24)
	const n = 8192
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	var prev float64 = math.Inf(1)
	for _, bucket := range []int{8192, 512, 64} {
		c := NewQSGD(4, bucket, MaxNorm)
		wire := c.NewEncoder(n, shape, 9).Encode(src)
		dst := make([]float32, n)
		if err := c.Decode(wire, n, shape, dst); err != nil {
			t.Fatal(err)
		}
		var mse float64
		for i := range src {
			d := float64(src[i] - dst[i])
			mse += d * d
		}
		if mse >= prev {
			t.Fatalf("bucket=%d: MSE %v did not decrease from %v", bucket, mse, prev)
		}
		prev = mse
	}
}

// TestQSGDTwoNormSparser: 2-norm scaling produces more exact zeros than
// max-norm — "the former is useful if we wish to obtain sparse quantized
// vectors" (§3.2.2).
func TestQSGDTwoNormSparser(t *testing.T) {
	r := rng.New(25)
	const n = 8192
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	count := func(norm Norm) int {
		c := NewQSGD(2, 512, norm)
		wire := c.NewEncoder(n, shape, 4).Encode(src)
		dst := make([]float32, n)
		if err := c.Decode(wire, n, shape, dst); err != nil {
			t.Fatal(err)
		}
		zeros := 0
		for _, v := range dst {
			if v == 0 {
				zeros++
			}
		}
		return zeros
	}
	zMax, zTwo := count(MaxNorm), count(TwoNorm)
	if zTwo <= zMax {
		t.Fatalf("two-norm zeros %d not greater than max-norm zeros %d", zTwo, zMax)
	}
}

// TestQSGDZeroBucket: an all-zero bucket encodes to scale 0 and decodes
// to exact zeros.
func TestQSGDZeroBucket(t *testing.T) {
	c := NewQSGD(4, 64, MaxNorm)
	const n = 64
	shape := Shape{Rows: n, Cols: 1}
	wire := c.NewEncoder(n, shape, 0).Encode(make([]float32, n))
	dst := make([]float32, n)
	dst[0] = 42
	if err := c.Decode(wire, n, shape, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

// TestQSGD2BitLevels: with 2 bits (sign + 1 level) decoded values are in
// {−scale, 0, +scale} — the paper's "levels 0, 1, and −1".
func TestQSGD2BitLevels(t *testing.T) {
	r := rng.New(26)
	c := NewQSGD(2, 128, MaxNorm)
	const n = 128
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	scale := bucketScale(src, MaxNorm)
	wire := c.NewEncoder(n, shape, 8).Encode(src)
	dst := make([]float32, n)
	if err := c.Decode(wire, n, shape, dst); err != nil {
		t.Fatal(err)
	}
	for i, v := range dst {
		av := float32(math.Abs(float64(v)))
		if v != 0 && math.Abs(float64(av-scale)) > 1e-6 {
			t.Fatalf("element %d = %v not in {0, ±%v}", i, v, scale)
		}
	}
}

// TestQSGDUniformSchemeRoundtrip exercises the second level layout.
func TestQSGDUniformSchemeRoundtrip(t *testing.T) {
	r := rng.New(27)
	c := NewQSGDScheme(8, 256, MaxNorm, Uniform)
	const n = 1000
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	wire := c.NewEncoder(n, shape, 2).Encode(src)
	dst := make([]float32, n)
	if err := c.Decode(wire, n, shape, dst); err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := range src {
		d := float64(src[i] - dst[i])
		mse += d * d
	}
	mse /= n
	if mse > 1e-3 {
		t.Fatalf("uniform 8-bit MSE too high: %v", mse)
	}
}

// TestQSGDSeedChangesStream: different seeds give different stochastic
// rounding decisions (independence across workers).
func TestQSGDSeedChangesStream(t *testing.T) {
	r := rng.New(28)
	c := NewQSGD(2, 128, MaxNorm)
	const n = 4096
	shape := Shape{Rows: n, Cols: 1}
	src := randVec(r, n)
	w1 := append([]byte(nil), c.NewEncoder(n, shape, 1).Encode(src)...)
	w2 := append([]byte(nil), c.NewEncoder(n, shape, 2).Encode(src)...)
	if string(w1) == string(w2) {
		t.Fatal("different seeds produced identical wires")
	}
}

func TestQSGDPanicsOnBadConfig(t *testing.T) {
	for _, f := range []func(){
		func() { NewQSGD(3, 128, MaxNorm) },
		func() { NewQSGD(4, 0, MaxNorm) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestQSGDLevelCounts(t *testing.T) {
	if NewQSGD(2, 1, MaxNorm).Levels() != 1 {
		t.Error("2-bit sign-magnitude should have 1 level")
	}
	if NewQSGD(4, 1, MaxNorm).Levels() != 7 {
		t.Error("4-bit sign-magnitude should have 7 levels")
	}
	if NewQSGD(8, 1, MaxNorm).Levels() != 127 {
		t.Error("8-bit sign-magnitude should have 127 levels")
	}
	if NewQSGDScheme(2, 1, MaxNorm, Uniform).Levels() != 2 {
		t.Error("2-bit uniform should have index range [0,2]")
	}
}

func TestQSGDNames(t *testing.T) {
	cases := map[string]Codec{
		"qsgd4b512":        NewQSGD(4, 512, MaxNorm),
		"qsgd2b128-l2":     NewQSGD(2, 128, TwoNorm),
		"qsgd8b256-uni":    NewQSGDScheme(8, 256, MaxNorm, Uniform),
		"qsgd8b256-l2-uni": NewQSGDScheme(8, 256, TwoNorm, Uniform),
	}
	for want, c := range cases {
		if got := c.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

// TestQSGDDecodeTableMirrorsSign holds the decode table — half of it
// dequantised, half mirrored by a sign flip under sign-magnitude and
// exponential levels — to dequantise over all 2^bits codes, bit for
// bit, for every table width and scheme, at scales that single out the
// edges: 0, a denormal, 1, the largest float32, +Inf and NaN.
func TestQSGDDecodeTableMirrorsSign(t *testing.T) {
	scales := []float32{0, math.Float32frombits(1), 1, math.MaxFloat32,
		float32(math.Inf(1)), float32(math.NaN())}
	for _, bits := range []int{2, 4, 8} {
		for _, scheme := range []Scheme{SignMagnitude, Uniform, Exponential} {
			q := NewQSGDScheme(bits, 512, MaxNorm, scheme)
			s := float32(q.Levels())
			for _, scale := range scales {
				got, want := make([]float32, 1<<bits), make([]float32, 1<<bits)
				q.decodeTable(got, scale, s)
				q.dequantise(want, identityCodes[:1<<bits], scale, s)
				for c := range want {
					if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
						t.Fatalf("%d bits %s scale %v: code %d is %#08x, dequantise gives %#08x",
							bits, scheme, scale, c, math.Float32bits(got[c]), math.Float32bits(want[c]))
					}
				}
			}
		}
	}
}
