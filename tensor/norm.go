package tensor

import "repro/rng"

// FillNorm writes draws from N(0, std²) to dst: exactly what
//
//	for i := range dst {
//		dst[i] = r.Norm(std)
//	}
//
// writes, leaving r in the state that loop leaves it in. rng.Norm is the
// reference: Box-Muller on two splitmix64 draws, with FMA-free replicas
// of amd64's math.Log (the operations of math/log_amd64.s) and math.Cos
// (math/sin.go's cos below 2π), so the bits are the same on every
// architecture.
//
// On amd64 with AVX2 the kernel in norm_amd64.s takes whole groups of
// four elements, one float64 lane each: element i of a group draws u1
// and u2 from splitmix64 counters 2i+1 and 2i+2 past the group's entry
// state, computes UnitFloat64 exactly, then the logarithm, the square
// root and the cosine by the replicas' operations in their order, and
// rounds as Norm does: the float64 product to float32, then ×std in
// float32. The kernel has no FMA, so it gives one answer on every AVX2
// host. A group in which some u1 is 0 (probability 2^−53 per element)
// stops the kernel before it; rng.Norm takes that group, with its retry
// drawing again as it always does, and the kernel resumes after it. The
// last len%4 elements run on rng.Norm.
func FillNorm(dst []float32, r *rng.RNG, std float32) {
	for i := fillNormAsm(dst, r, std); i < len(dst); i++ {
		dst[i] = r.Norm(std)
	}
}
