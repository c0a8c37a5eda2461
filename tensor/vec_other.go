//go:build !amd64

package tensor

// The vector kernels' dispatchers report that this architecture has no
// kernels: every element runs on the portable loops.

func addAsm([]float32, []float32) int { return 0 }

func maxAbsAsm([]float32) (int, float32) { return 0, 0 }

func scaleAsm([]float32, float32) int { return 0 }

func momentumAsm(_, _, _ []float32, _, _, _ float32) int { return 0 }

func momentumDecayAsm(_, _, _ []float32, _, _, _, _ float32) int { return 0 }
