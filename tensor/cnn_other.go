//go:build !amd64

package tensor

// The CNN kernels' dispatchers report that this architecture has no
// kernels: every element runs on the portable loops.

func reluAsm([]float32, []float32) int { return 0 }

func reluGradAsm(_, _, _ []float32) int { return 0 }

func maxPool2x2Asm([]float32, []int32, []float32, int) int { return 0 }

func batchNormApplyAsm(_, _, _, _, _, _, _ []float32) bool { return false }

func batchNormInputGradAsm(_, _, _, _, _, _ []float32) bool { return false }

func batchNormStatsAsm([]float32, []float32, *Matrix, float64) int { return 0 }

func batchNormGradSumsAsm(_, _ []float32, _, _ *Matrix) int { return 0 }
