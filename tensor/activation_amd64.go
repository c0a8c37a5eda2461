package tensor

//go:noescape
func sigmoidAVX2(dst, src *float32, n uintptr)

//go:noescape
func tanhAVX2(dst, src *float32, n uintptr)

// sigmoidAsm sets the body of dst (vecBody) on the AVX2 kernel and
// returns its length, in vecChunk calls. The lengths were checked by
// the caller, as in tanhAsm.
func sigmoidAsm(dst, src []float32) int {
	n := vecBody(len(dst))
	for i := 0; i < n; i += vecChunk {
		sigmoidAVX2(&dst[i], &src[i], uintptr(min(vecChunk, n-i)))
	}
	return n
}

func tanhAsm(dst, src []float32) int {
	n := vecBody(len(dst))
	for i := 0; i < n; i += vecChunk {
		tanhAVX2(&dst[i], &src[i], uintptr(min(vecChunk, n-i)))
	}
	return n
}

//go:noescape
func lstmGateGradsAVX2(dz *float32, h uintptr, dc, dh, ig, fg, gg, og, tc, cp *float32, n uintptr)

// lstmGateGradsAsm runs the body of the hidden size (vecBody) on the
// AVX2 kernel and returns its length. The lengths were checked by the
// caller.
func lstmGateGradsAsm(dz, dc, dh, i, f, g, o, tc, cp []float32) int {
	h := len(dc)
	n := vecBody(h)
	for j := 0; j < n; j += vecChunk {
		lstmGateGradsAVX2(&dz[j], uintptr(h), &dc[j], &dh[j], &i[j], &f[j], &g[j], &o[j], &tc[j], &cp[j], uintptr(min(vecChunk, n-j)))
	}
	return n
}
