// Package tensor implements dense float32 matrices and the numerical
// kernels required by the neural-network substrate: matrix products
// (including transposed variants), element-wise operations, reductions,
// and the im2col/col2im transforms used by convolution layers.
//
// The package deliberately stays on float32: the paper's systems (CNTK on
// CUDA) train in single precision, and the quantisation codecs in
// internal/quant operate on float32 gradients.
//
// # The GEMM kernels
//
// MatMul, MatMulTransA and MatMulTransB (and so MatMulAddBias) share one
// contract, whichever code runs them:
//
//   - Every dst[i][j] is ((0 + t₀) + t₁) + … over its k terms in
//     ascending k, each term one IEEE float32 multiply and each sum one
//     IEEE float32 add. Nothing is fused: an FMA rounds once where
//     multiply-then-add rounds twice, so a build that fused would train
//     to different bits than one that did not, and training digests,
//     goldens and cross-machine replica comparisons rest on those bits.
//   - No term is skipped. A zero multiplicand against Inf or NaN yields
//     NaN from all three entry points, so sparsity cannot hide a
//     diverged operand. (With finite operands skipping zeros would not
//     change a bit: a sum started at +0 never becomes -0.)
//
// On amd64 with AVX2 the products run on register-tiled kernels written
// in Go assembly (gemm_amd64.s: VBROADCASTSS, VMULPS, VADDPS). Their
// vector lanes run across output elements — eight j of one dst row; for
// MatMulTransB, whose operands are both contiguous in k, eight rows of b
// transposed in registers four k steps at a time — and never across k,
// so a lane computes exactly the scalar sum above. A kernel call produces
// a panel of four dst rows, its accumulators living in YMM registers for
// the whole k loop and stored once. Tails take no masked or scalar code:
// the last column strip, row panel or k block is pulled back to end at
// the edge, recomputing a few elements to the same values (fewer than
// four rows run one at a time with zero row strides). Products with
// fewer than 8 columns, or fewer than 4 k steps for MatMulTransB, have
// no full vector to pull back to and stay on the portable loops.
//
// The choice is made once, at package initialisation, from CPUID (AVX2)
// and XGETBV (the OS saves YMM state); there is no option, environment
// variable or build tag. AVX-512 is not used: workers that outnumber the
// cores share them, and 512-bit code lowers the clock for its
// neighbours. Kernels run VZEROUPPER before every return, so the SSE
// code around them pays no transition penalty, and align their loops
// themselves (PCALIGN), so their speed does not depend on where the
// linker happens to put them. The GEMM loops align to 64 bytes, which
// also makes the linker align those functions to 64: at 32, text added
// elsewhere in a binary could move their heads between the two halves
// of a cache line, a change of speed no change of theirs explains.
// Assembly is never preempted asynchronously;
// one call is bounded by one panel, 8·k·n flops — about 0.1 ms at the
// largest layer here (k=1024, n=512).
//
// Everywhere else — other architectures, CPUs without AVX2 — the
// portable Go loops in gemm.go run; they are also the reference the
// kernels are tested against bit for bit (gemm_test.go).
//
// # The vector kernels
//
// Add, Scale and MomentumStep (the whole SGD-with-momentum update,
// gradient average and weight decay included, in one pass) are
// element-wise, so the same rule is simpler to keep: each element is
// the scalar chain of separately rounded float32 operations vec.go
// documents, a vector lane per element, nothing fused. They share the
// GEMM's switch: AVX2 kernels in vec_amd64.s take whole vectors of
// eight and the portable loops in vec.go the last len%8 elements
// (there is no pull-back here, an update is not idempotent); without
// AVX2 the portable loops take everything. One kernel call covers at
// most 64 Ki elements. The portable loops wrap every product in an
// explicit float32 conversion, which forbids the compiler to fuse it
// with the following add — arm64 otherwise would — so every
// architecture computes the same bits (scripts/check_nofma.sh).
//
// MaxAbs, a reduction, keeps the same rule by being order-free: the
// largest of non-negative, non-NaN values is one value whichever lane
// finds it, and a NaN is skipped by the kernel's VMAXPS exactly as by
// the loop's comparison. HasAVX2 exports the CPU probe for the QSGD
// kernels in quant, which keep their own test switch. Every kernel is
// VEX-encoded throughout (scripts/check_vex.sh): one legacy-SSE
// instruction among them costs an SSE/AVX transition per call.
//
// # The CNN kernels
//
// ReLU and ReLUGrad, MaxPool, BatchNormStats, BatchNormGradSums,
// BatchNormApply and BatchNormInputGrad (cnn.go) and Col2im (conv.go)
// follow the same rules under the same switch: each output is the
// portable loop's, bit for bit, lanes run across outputs (or, for the
// batch-norm sums, across channels, each channel's float64 chain in the
// loop's order), nothing is fused. Selecting kernels (ReLU, max
// pooling) return raw bits, NaN payloads included. Where a kernel's
// lanes reach past a run or a plane it masks them (VMASKMOVPS) rather
// than leave a tail to the loop.
//
// # The normal-draw kernel
//
// FillNorm (norm.go) writes a run of rng.Norm's draws under the same
// switch, four elements at a time in float64 lanes, each lane the
// scalar's operations in their order: its bits and the generator's
// final state are those of the rng.Norm loop, which is its reference.
package tensor

import (
	"fmt"
	"math"

	"repro/rng"
)

// Matrix is a dense, row-major float32 matrix. Element (i, j) lives at
// Data[i*Cols+j]. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New returns a zeroed rows×cols matrix. It panics if either dimension is
// negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Reuse returns m reshaped to rows×cols over its own storage when that
// holds rows·cols elements, and a new zeroed matrix otherwise (also for
// a nil m). Layer scratch kept this way grows to the largest batch it
// has seen and is resliced, not reallocated, for smaller ones. A reused
// matrix holds whatever it held: the caller overwrites or zeroes every
// element. Its header changes in place, so nothing may keep m and
// expect its old shape.
func Reuse(m *Matrix, rows, cols int) *Matrix {
	if m == nil || rows < 0 || cols < 0 || cap(m.Data) < rows*cols {
		return New(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:rows*cols]
	return m
}

// FromSlice wraps data as a rows×cols matrix without copying. It panics if
// len(data) != rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Len returns the number of elements.
func (m *Matrix) Len() int { return m.Rows * m.Cols }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src's contents into m. The shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: CopyFrom shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { clear(m.Data) }

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// FillNorm fills m with draws from N(0, std²) using r, in the order of
// its data, as the package-level FillNorm does.
func (m *Matrix) FillNorm(r *rng.RNG, std float32) { FillNorm(m.Data, r, std) }

// Scale multiplies every element by a (the vector kernel Scale).
func (m *Matrix) Scale(a float32) { Scale(m.Data, a) }

// Add accumulates src into m element-wise (the vector kernel Add).
// Shapes must match.
func (m *Matrix) Add(src *Matrix) {
	if m.Len() != src.Len() {
		panic("tensor: Add size mismatch")
	}
	Add(m.Data, src.Data)
}

// AddScaled accumulates a*src into m element-wise (axpy).
func (m *Matrix) AddScaled(a float32, src *Matrix) {
	if m.Len() != src.Len() {
		panic("tensor: AddScaled size mismatch")
	}
	for i, v := range src.Data {
		m.Data[i] += float32(a * v)
	}
}

// Sum returns the sum of all elements (accumulated in float64 to limit
// rounding drift on large matrices).
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(v)
	}
	return s
}

// Norm2 returns the Euclidean norm of the matrix viewed as a vector.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest absolute element value.
func (m *Matrix) MaxAbs() float32 {
	var mx float32
	for _, v := range m.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// Row returns a view (no copy) of row i as a slice of length Cols.
func (m *Matrix) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// ArgMaxRow returns the column index of the largest value in row i.
func (m *Matrix) ArgMaxRow(i int) int {
	row := m.Row(i)
	best, bestV := 0, row[0]
	for j, v := range row {
		if v > bestV {
			best, bestV = j, v
		}
	}
	return best
}

// Equal reports whether m and other have identical shape and elements
// within tolerance eps.
func (m *Matrix) Equal(other *Matrix, eps float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

// String renders a compact description (shape only, to keep logs sane).
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}

// Transpose returns a new matrix that is the transpose of m.
func Transpose(m *Matrix) *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}
