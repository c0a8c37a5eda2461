package tensor

import "repro/rng"

// normChunk bounds the elements one normAVX2 call writes, so that a
// call, which cannot be preempted, stays near 50 µs (~10 ns a draw).
const normChunk = 1 << 12

//go:noescape
func normAVX2(dst *float32, n uintptr, state uint64, std float32) (done uintptr, next uint64)

// fillNormAsm writes the whole groups of four of dst on the AVX2 kernel
// (nothing without AVX2), advances r past their draws, and returns how
// many elements it wrote. A kernel call that stops short stopped at a
// group with a u1 of 0: rng.Norm writes that group, then the kernel
// goes on.
func fillNormAsm(dst []float32, r *rng.RNG, std float32) int {
	if !useAVX2 {
		return 0
	}
	n := len(dst) &^ 3
	state := r.State()
	for i := 0; i < n; {
		want := min(normChunk, n-i)
		done, next := normAVX2(&dst[i], uintptr(want), state, std)
		i, state = i+int(done), next
		if int(done) < want {
			r.SetState(state)
			for end := i + 4; i < end; i++ {
				dst[i] = r.Norm(std)
			}
			state = r.State()
		}
	}
	r.SetState(state)
	return n
}
