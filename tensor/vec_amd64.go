package tensor

// vecChunk bounds the elements one kernel call updates, so that a call,
// which cannot be preempted, stays near 50 µs even on the largest
// tensor; splitting a slice between calls changes no bit.
const vecChunk = 1 << 16

//go:noescape
func maxAbsAVX2(x *float32, n uintptr) float32

//go:noescape
func addAVX2(dst, src *float32, n uintptr)

//go:noescape
func scaleAVX2(x *float32, n uintptr, a float32)

//go:noescape
func momentumAVX2(w, v, grad *float32, n uintptr, a, mu, eta float32)

//go:noescape
func momentumDecayAVX2(w, v, grad *float32, n uintptr, a, mu, eta, lambda float32)

// vecBody is the prefix of an n-element slice the kernels take: whole
// vectors of eight, or nothing without AVX2. The caller finishes the
// rest on the portable loop.
func vecBody(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 7
}

// addAsm adds src into dst on the AVX2 kernel, tail included, and
// returns the length it took: all of dst, or nothing without AVX2. The
// lengths were checked by the caller, as in the three functions below.
func addAsm(dst, src []float32) int {
	if !useAVX2 {
		return 0
	}
	n := len(dst)
	for i := 0; i < n; i += vecChunk {
		addAVX2(&dst[i], &src[i], uintptr(min(vecChunk, n-i)))
	}
	return n
}

// maxAbsAsm returns the length of the body of x it took and the
// largest |x[i]| in it (0 for none).
func maxAbsAsm(x []float32) (int, float32) {
	n := vecBody(len(x))
	var m float32
	for i := 0; i < n; i += vecChunk {
		m = max(m, maxAbsAVX2(&x[i], uintptr(min(vecChunk, n-i))))
	}
	return n, m
}

func scaleAsm(x []float32, a float32) int {
	n := vecBody(len(x))
	for i := 0; i < n; i += vecChunk {
		scaleAVX2(&x[i], uintptr(min(vecChunk, n-i)), a)
	}
	return n
}

func momentumAsm(w, v, g []float32, a, mu, eta float32) int {
	n := vecBody(len(w))
	for i := 0; i < n; i += vecChunk {
		momentumAVX2(&w[i], &v[i], &g[i], uintptr(min(vecChunk, n-i)), a, mu, eta)
	}
	return n
}

func momentumDecayAsm(w, v, g []float32, a, mu, eta, lambda float32) int {
	n := vecBody(len(w))
	for i := 0; i < n; i += vecChunk {
		momentumDecayAVX2(&w[i], &v[i], &g[i], uintptr(min(vecChunk, n-i)), a, mu, eta, lambda)
	}
	return n
}
