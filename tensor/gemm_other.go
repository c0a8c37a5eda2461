//go:build !amd64

package tensor

// useAVX2 is always false here; it exists so that tests can switch the
// dispatchers on every architecture.
var useAVX2 = false

// gemmAsm reports that this architecture has no vector kernels: every
// product runs on the portable loops.
func gemmAsm(gemmKind, *Matrix, *Matrix, *Matrix) bool { return false }
