package tensor

import "fmt"

// gemmKind names which operand a product reads transposed.
type gemmKind int

const (
	gemmNN gemmKind = iota // a × b
	gemmTA                 // aᵀ × b
	gemmTB                 // a × bᵀ
)

// MatMul computes dst = a × b. dst must be pre-allocated with shape
// a.Rows×b.Cols and must not alias a or b. It panics on shape mismatch.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if !gemmAsm(gemmNN, dst, a, b) {
		matMulGo(dst, a, b)
	}
}

// MatMulAddBias computes dst = a × b and then adds bias (a 1×b.Cols row
// vector) to every row of dst.
func MatMulAddBias(dst, a, b, bias *Matrix) {
	MatMul(dst, a, b)
	if bias.Len() != dst.Cols {
		panic("tensor: MatMulAddBias bias size mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		Add(dst.Row(i), bias.Data)
	}
}

// MatMulTransA computes dst = aᵀ × b where a is stored untransposed.
// dst shape must be a.Cols×b.Cols.
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA shape mismatch (%dx%d)ᵀ*(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if !gemmAsm(gemmTA, dst, a, b) {
		matMulTransAGo(dst, a, b)
	}
}

// MatMulTransB computes dst = a × bᵀ where b is stored untransposed.
// dst shape must be a.Rows×b.Rows.
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB shape mismatch (%dx%d)*(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if !gemmAsm(gemmTB, dst, a, b) {
		matMulTransBGo(dst, a, b)
	}
}

// The portable loops: the only path off amd64 or without AVX2, the path
// of products too narrow for a vector, and the reference the kernels
// are tested against bit for bit. The float32 conversion around each
// product is what the language offers to forbid fusing it with the
// addition, and a zero multiplicand is not skipped: 0·Inf and 0·NaN
// must reach dst as NaN from every entry point.

func matMulGo(dst, a, b *Matrix) {
	dst.Zero()
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

func matMulTransAGo(dst, a, b *Matrix) {
	dst.Zero()
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Data[k*n : k*n+n]
		for i, av := range arow {
			drow := dst.Data[i*n : i*n+n]
			for j, bv := range brow {
				drow[j] += float32(av * bv)
			}
		}
	}
}

func matMulTransBGo(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float32
			for k, av := range arow {
				s += float32(av * brow[k])
			}
			drow[j] = s
		}
	}
}
