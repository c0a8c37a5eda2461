package quant

import (
	"repro/rng"
	"repro/tensor"
)

// useAVX2 routes the linear schemes' float pass, every scheme's draw
// pass, the 2-, 4- and 8-bit pack and the 2- and 4-bit table decode
// through the kernels in qsgd_amd64.s. It starts as tensor's CPU
// probe says; tests flip it to run the portable loops on the same
// machine.
var useAVX2 = tensor.HasAVX2()

//go:noescape
func linearAVX2(codes *uint32, frac *float64, draw *uint8, vals *float32, n uintptr, shift, width, s float64, absMask, signBit, lvlMask uint32)

//go:noescape
func drawAVX2(codes *uint32, frac *float64, draw *uint8, n uintptr, state uint64, steps *[16]drawStep) uint64

//go:noescape
func lookup4AVX2(out *float32, codes *byte, words uintptr, tab *[256]float32, add bool)

//go:noescape
func lookup2AVX2(out *float32, codes *byte, words uintptr, tab *[256]float32, add bool)

//go:noescape
func pack8AVX2(dst *byte, codes *uint32, blocks uintptr)

//go:noescape
func pack4AVX2(dst *byte, codes *uint32, blocks uintptr)

//go:noescape
func pack2AVX2(dst *byte, codes *uint32, blocks uintptr)

// drawStep is drawAVX2's table entry for a group of four elements
// whose draw bits form the mask m (bit k: element k draws). lanes[k] is
// how far element k's splitmix64 counter runs ahead of the stream
// position before the group, γ·(1 + draws among the elements before
// it); every lane of advance is how far the group moves the position,
// γ·popcount(m).
type drawStep struct {
	lanes, advance [4]uint64
}

var drawSteps = func() (t [16]drawStep) {
	gamma, _ := rng.Step(0)
	for m := range t {
		var before uint64
		for k := range 4 {
			t[m].lanes[k] = gamma * (1 + before)
			before += uint64(m >> k & 1)
		}
		t[m].advance = [4]uint64{gamma * before, gamma * before, gamma * before, gamma * before}
	}
	return t
}()

// groupBody is the prefix of an n-element chunk the kernels take: whole
// groups of four, or nothing without AVX2. The caller finishes the rest
// on the portable loop.
func groupBody(n int) int {
	if !useAVX2 {
		return 0
	}
	return n &^ 3
}

// encodeLinearAsm runs encodeLinear's float pass over the body of vals
// and returns its length.
func encodeLinearAsm(sc *qsgdScratch, vals []float32, shift, width, s float64, absMask, signBit, lvlMask uint32) int {
	n := groupBody(len(vals))
	if n > 0 {
		linearAVX2(&sc.codes[0], &sc.frac[0], &sc.draw[0], &vals[0], uintptr(n), shift, width, s, absMask, signBit, lvlMask)
	}
	return n
}

// drawLevelsAsm runs drawLevels over the body of codes and returns its
// length and the stream position after it. frac and draw are at least
// as long as codes.
func drawLevelsAsm(codes []uint32, frac []float64, draw []uint8, state uint64) (int, uint64) {
	n := groupBody(len(codes))
	if n > 0 {
		state = drawAVX2(&codes[0], &frac[0], &draw[0], uintptr(n), state, &drawSteps)
	}
	return n, state
}

// packCodesAsm packs the body of codes into dst as packCodes does and
// returns its length: whole blocks of 256/bits codes, which fill 32
// bytes, at 2, 4 and 8 bits.
func packCodesAsm(dst []byte, codes []uint32, bits uint) int {
	if !useAVX2 || bits > 8 {
		return 0
	}
	block := 256 / int(bits)
	blocks := len(codes) / block
	if blocks == 0 {
		return 0
	}
	_ = dst[32*blocks-1]
	switch bits {
	case 8:
		pack8AVX2(&dst[0], &codes[0], uintptr(blocks))
	case 4:
		pack4AVX2(&dst[0], &codes[0], uintptr(blocks))
	default:
		pack2AVX2(&dst[0], &codes[0], uintptr(blocks))
	}
	return blocks * block
}

// lookupCodesAsm writes (add: adds) the table entries of the codes in
// the whole words of codes to out, at 2 and 4 bits, and returns how many
// elements it took.
func lookupCodesAsm(out []float32, codes []byte, tab *[256]float32, bits uint, add bool) int {
	if !useAVX2 || bits > 4 {
		return 0
	}
	per := 32 / int(bits)
	words := len(out) / per
	if words == 0 {
		return 0
	}
	_ = codes[4*words-1]
	if bits == 4 {
		lookup4AVX2(&out[0], &codes[0], uintptr(words), tab, add)
	} else {
		lookup2AVX2(&out[0], &codes[0], uintptr(words), tab, add)
	}
	return words * per
}
