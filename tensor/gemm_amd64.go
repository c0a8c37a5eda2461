package tensor

// hasAVX2 is the CPU probe, run once. useAVX2 routes the three GEMM
// entry points through the kernels in gemm_amd64.s; it starts as the
// probe says and tests flip it to run the portable loops on the same
// machine.
var (
	hasAVX2 = detectAVX2()
	useAVX2 = hasAVX2
)

// HasAVX2 reports whether the CPU has AVX2 and the OS saves its
// registers: the probe this package's kernels are chosen by, for other
// packages' kernels to share. It does not follow the package's test
// switch.
func HasAVX2() bool { return hasAVX2 }

// detectAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// state across context switches (CPUID alone does not say the latter).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmState, ymmState = 1 << 1, 1 << 2
	if xcr0, _ := xgetbv(); xcr0&(xmmState|ymmState) != xmmState|ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// panelRows is the number of dst rows one kernel call produces.
const panelRows = 4

//go:noescape
func gemmPanelAVX2(dst *float32, ldd uintptr, a *float32, sai, sak uintptr, b *float32, ldb, k, n uintptr)

//go:noescape
func gemmPanelTBAVX2(dst *float32, ldd uintptr, a *float32, lda uintptr, b *float32, ldb, k, n uintptr)

// gemmAsm computes dst on the AVX2 kernels and reports whether it did:
// not without AVX2, and not for products narrower than one vector
// (fewer than 8 columns, or fewer than 4 k steps for gemmTB), which stay
// on the portable loops. Shapes were checked by the caller.
func gemmAsm(kind gemmKind, dst, a, b *Matrix) bool {
	m, n, k := dst.Rows, dst.Cols, a.Cols
	ai, ak := a.Cols, 1 // op(a)[i][kk] is a.Data[i*ai+kk*ak]
	if kind == gemmTA {
		k, ai, ak = a.Rows, 1, a.Cols
	}
	minK := 1
	if kind == gemmTB {
		minK = 4
	}
	if !useAVX2 || m == 0 || n < 8 || k < minK {
		return false
	}
	// The kernels have no row tail. The last panel is pulled back to end
	// at row m (rows it shares with its neighbour are recomputed to the
	// same values); fewer rows than one panel run a row at a time with
	// row strides of zero, all four kernel rows being that row.
	rows, aStride, dStride := panelRows, uintptr(ai)*4, uintptr(n)*4
	if m < panelRows {
		rows, aStride, dStride = 1, 0, 0
	}
	for i := 0; i < m; i += rows {
		i0 := min(i, m-rows)
		d, ap := &dst.Data[i0*n], &a.Data[i0*ai]
		if kind == gemmTB {
			gemmPanelTBAVX2(d, dStride, ap, aStride, &b.Data[0], uintptr(k)*4, uintptr(k), uintptr(n))
		} else {
			gemmPanelAVX2(d, dStride, ap, aStride, uintptr(ak)*4, &b.Data[0], uintptr(n)*4, uintptr(k), uintptr(n))
		}
	}
	return true
}
