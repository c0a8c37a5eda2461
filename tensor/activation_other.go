//go:build !amd64

package tensor

// The activation kernels' dispatchers report that this architecture
// has no kernels: every element runs on the portable loops.

func sigmoidAsm([]float32, []float32) int { return 0 }

func tanhAsm([]float32, []float32) int { return 0 }

func lstmGateGradsAsm(_, _, _, _, _, _, _, _, _ []float32) int { return 0 }
