//go:build !amd64

package tensor

import "repro/rng"

// fillNormAsm reports that this architecture has no normal-draw kernel:
// every element runs on rng.Norm.
func fillNormAsm([]float32, *rng.RNG, float32) int { return 0 }
