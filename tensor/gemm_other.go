//go:build !amd64

package tensor

// gemmAsm reports that this architecture has no vector kernels: every
// product runs on the portable loops.
func gemmAsm(gemmKind, *Matrix, *Matrix, *Matrix) bool { return false }
