//go:build !amd64

package tensor

// col2imSameAsm reports that this architecture has no Col2im kernel.
func col2imSameAsm(ConvShape, *Matrix, []float32) bool { return false }
