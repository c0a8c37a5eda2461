package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/rng"
)

func almostEqual(a, b, eps float32) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= eps
}

// naiveMatMul is a straightforward triple loop used as a correctness
// oracle for the optimised kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randMatrix(r *rng.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	m.FillNorm(r, 1)
	return m
}

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape: %v", m)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromSliceMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestAtSet(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 || m.Data[5] != 5 {
		t.Fatal("row-major layout broken")
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := rng.New(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {16, 16, 16}, {1, 10, 1}} {
		a := randMatrix(r, dims[0], dims[1])
		b := randMatrix(r, dims[1], dims[2])
		got := New(dims[0], dims[2])
		MatMul(got, a, b)
		want := naiveMatMul(a, b)
		if !got.Equal(want, 1e-4) {
			t.Fatalf("MatMul mismatch for dims %v", dims)
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 2), New(2, 3), New(4, 2))
}

func TestMatMulTransA(t *testing.T) {
	r := rng.New(2)
	a := randMatrix(r, 6, 4)
	b := randMatrix(r, 6, 5)
	got := New(4, 5)
	MatMulTransA(got, a, b)
	want := naiveMatMul(Transpose(a), b)
	if !got.Equal(want, 1e-4) {
		t.Fatal("MatMulTransA mismatch")
	}
}

func TestMatMulTransB(t *testing.T) {
	r := rng.New(3)
	a := randMatrix(r, 6, 4)
	b := randMatrix(r, 5, 4)
	got := New(6, 5)
	MatMulTransB(got, a, b)
	want := naiveMatMul(a, Transpose(b))
	if !got.Equal(want, 1e-4) {
		t.Fatal("MatMulTransB mismatch")
	}
}

func TestMatMulAddBias(t *testing.T) {
	r := rng.New(4)
	a := randMatrix(r, 3, 4)
	b := randMatrix(r, 4, 2)
	bias := FromSlice(1, 2, []float32{10, -10})
	got := New(3, 2)
	MatMulAddBias(got, a, b, bias)
	want := naiveMatMul(a, b)
	for i := 0; i < 3; i++ {
		if !almostEqual(got.At(i, 0), want.At(i, 0)+10, 1e-4) ||
			!almostEqual(got.At(i, 1), want.At(i, 1)-10, 1e-4) {
			t.Fatal("bias not applied correctly")
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	r := rng.New(5)
	m := randMatrix(r, 7, 3)
	tt := Transpose(Transpose(m))
	if !m.Equal(tt, 0) {
		t.Fatal("transpose twice != identity")
	}
}

func TestAddAndAddScaled(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{4, 5, 6})
	a.Add(b)
	if a.Data[0] != 5 || a.Data[2] != 9 {
		t.Fatal("Add wrong")
	}
	a.AddScaled(-1, b)
	if a.Data[0] != 1 || a.Data[2] != 3 {
		t.Fatal("AddScaled wrong")
	}
}

func TestScaleZeroFill(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	m.Scale(2)
	if m.Data[1] != 4 {
		t.Fatal("Scale wrong")
	}
	m.Fill(7)
	if m.Data[0] != 7 || m.Data[2] != 7 {
		t.Fatal("Fill wrong")
	}
	m.Zero()
	if m.Sum() != 0 {
		t.Fatal("Zero wrong")
	}
}

func TestNorm2AndMaxAbs(t *testing.T) {
	m := FromSlice(1, 4, []float32{3, -4, 0, 0})
	if !almostEqual(float32(m.Norm2()), 5, 1e-6) {
		t.Fatalf("Norm2 = %v", m.Norm2())
	}
	if m.MaxAbs() != 4 {
		t.Fatalf("MaxAbs = %v", m.MaxAbs())
	}
}

func TestArgMaxRow(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 9, 2, -5, -1, -2})
	if m.ArgMaxRow(0) != 1 || m.ArgMaxRow(1) != 1 {
		t.Fatal("ArgMaxRow wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] != 1 {
		t.Fatal("Clone aliases parent")
	}
}

// Property: (A*B)ᵀ == Bᵀ*Aᵀ.
func TestMatMulTransposeProperty(t *testing.T) {
	r := rng.New(6)
	f := func(seed uint16) bool {
		rr := r.Fork(uint64(seed))
		m := 1 + rr.Intn(8)
		k := 1 + rr.Intn(8)
		n := 1 + rr.Intn(8)
		a := randMatrix(rr, m, k)
		b := randMatrix(rr, k, n)
		ab := New(m, n)
		MatMul(ab, a, b)
		left := Transpose(ab)
		right := naiveMatMul(Transpose(b), Transpose(a))
		return left.Equal(right, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix product is linear in its first argument.
func TestMatMulLinearityProperty(t *testing.T) {
	r := rng.New(7)
	f := func(seed uint16) bool {
		rr := r.Fork(uint64(seed))
		m, k, n := 1+rr.Intn(6), 1+rr.Intn(6), 1+rr.Intn(6)
		a1 := randMatrix(rr, m, k)
		a2 := randMatrix(rr, m, k)
		b := randMatrix(rr, k, n)
		sum := a1.Clone()
		sum.Add(a2)
		lhs := New(m, n)
		MatMul(lhs, sum, b)
		p1, p2 := New(m, n), New(m, n)
		MatMul(p1, a1, b)
		MatMul(p2, a2, b)
		p1.Add(p2)
		return lhs.Equal(p1, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSumFloat64Accumulation(t *testing.T) {
	m := New(1, 1000000)
	m.Fill(0.1)
	if got := m.Sum(); math.Abs(got-100000) > 1 {
		t.Fatalf("Sum drifted: %v", got)
	}
}

// TestReuse: a nil or too small matrix is replaced by a new zeroed one;
// one whose storage is large enough is reshaped in place over it.
func TestReuse(t *testing.T) {
	m := Reuse(nil, 4, 3)
	if m.Rows != 4 || m.Cols != 3 || len(m.Data) != 12 {
		t.Fatalf("Reuse(nil, 4, 3) is %dx%d with %d elements", m.Rows, m.Cols, len(m.Data))
	}
	m.Data[0] = 7
	if s := Reuse(m, 2, 5); s != m || s.Rows != 2 || s.Cols != 5 || len(s.Data) != 10 || &s.Data[0] != &m.Data[0] {
		t.Fatalf("shrinking did not reshape in place: %p %dx%d len %d, was %p", s, s.Rows, s.Cols, len(s.Data), m)
	}
	if g := Reuse(m, 4, 3); g != m || len(g.Data) != 12 || g.Data[0] != 7 {
		t.Fatalf("growing back within capacity reallocated or lost the storage")
	}
	if g := Reuse(m, 5, 3); g == m || len(g.Data) != 15 || g.Data[0] != 0 {
		t.Fatalf("growing past capacity did not allocate a new zeroed matrix")
	}
	defer func() {
		if recover() == nil {
			t.Error("negative dimensions accepted")
		}
	}()
	Reuse(m, -2, -3)
}
