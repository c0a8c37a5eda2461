package tensor

//go:noescape
func col2imSameAVX2(dst, src *float32, p0, n uintptr, lanes *[24]int32, w, oh, kh, kw, padH, padW, rowLen, stepX, stepY uintptr)

// gridLanes is the starting state of a kernel whose lanes run across
// eight consecutive positions, from q on, of a grid w wide: each lane's
// column, then its row, then its lane number. The kernel moves them on
// eight positions per vector, the column by 8 mod w and the row by
// 8 / w, and wraps a column that reaches w to the next row.
func gridLanes(q, w int) (lanes [24]int32) {
	x, y := q%w, q/w
	for i := range 8 {
		lanes[i], lanes[8+i], lanes[16+i] = int32(x), int32(y), int32(i)
		if x++; x == w {
			x, y = 0, y+1
		}
	}
	return lanes
}

// col2imSameAsm runs Col2im for a sameRows geometry on the AVX2 kernel,
// one channel plane and at most vecChunk pixels per call, and reports
// whether it did: not without AVX2. The shapes were checked by the
// caller.
func col2imSameAsm(c ConvShape, src *Matrix, dst []float32) bool {
	if !useAVX2 {
		return false
	}
	plane, rowLen, taps := c.InH*c.InW, c.OutH()*c.OutW(), c.KH*c.KW
	for p0 := 0; p0 < plane; p0 += vecChunk {
		lanes := gridLanes(p0, c.InW)
		for ch := 0; ch < c.InC; ch++ {
			col2imSameAVX2(&dst[ch*plane+p0], &src.Data[ch*taps*rowLen], uintptr(p0), uintptr(min(vecChunk, plane-p0)),
				&lanes, uintptr(c.InW), uintptr(c.OutH()), uintptr(c.KH), uintptr(c.KW), uintptr(c.PadH), uintptr(c.PadW),
				uintptr(rowLen), uintptr(8%c.InW), uintptr(8/c.InW))
		}
	}
	return true
}
