//go:build !amd64

package tensor

// useAVX2 is always false here; it exists so that tests can switch the
// dispatchers on every architecture.
var useAVX2 = false

// HasAVX2 reports false: this architecture has no AVX2.
func HasAVX2() bool { return false }

// gemmAsm reports that this architecture has no vector kernels: every
// product runs on the portable loops.
func gemmAsm(gemmKind, *Matrix, *Matrix, *Matrix) bool { return false }
