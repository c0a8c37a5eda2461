package quant

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/rng"
)

// The scalar QSGD encoder and decoder as they stood before the
// word-at-a-time kernels in qsgd.go replaced them, kept verbatim (only
// the receiver types are renamed) as the reference the kernel parity
// tests compare against: one element at a time, a scheme switch per
// element, rng.RNG.Float64 for every draw. It defines what "bit-
// identical" means for wire bytes, draw order and decoded floats, so it
// must not be optimised or "fixed" alongside the kernels.

// refQSGDEncoder is the scalar reference for qsgdEncoder.
type refQSGDEncoder struct {
	q   QSGD
	n   int
	buf []byte
	rng *rng.RNG
}

func newRefQSGDEncoder(q QSGD, n int, shape Shape, seed uint64) *refQSGDEncoder {
	return &refQSGDEncoder{q: q, n: n, buf: make([]byte, q.EncodedBytes(n, shape)), rng: rng.New(seed)}
}

// Encode is the scalar reference for qsgdEncoder.Encode.
func (e *refQSGDEncoder) Encode(src []float32) []byte {
	if len(src) != e.n {
		panic(fmt.Sprintf("quant: qsgd encoder got %d values, want %d", len(src), e.n))
	}
	q := e.q
	s := float64(q.Levels())
	off := 0
	for start := 0; start < e.n; start += q.bucket {
		end := start + q.bucket
		if end > e.n {
			end = e.n
		}
		c := end - start
		grp := src[start:end]
		scale := refBucketScale(grp, q.norm)
		binary.LittleEndian.PutUint32(e.buf[off:], math.Float32bits(scale))
		off += 4
		nw := words32(c * q.bits)
		var word uint32
		wi := 0
		bitPos := 0
		flush := func() {
			binary.LittleEndian.PutUint32(e.buf[off+4*wi:], word)
			word = 0
			wi++
			bitPos = 0
		}
		for i := 0; i < c; i++ {
			var code uint32
			if scale > 0 {
				code = e.quantiseOne(grp[i], float64(scale), s)
			}
			word |= code << uint(bitPos)
			bitPos += q.bits
			if bitPos == 32 {
				flush()
			}
		}
		if bitPos > 0 {
			flush()
		}
		if wi != nw {
			panic("quant: qsgd internal packing drift")
		}
		off += 4 * nw
	}
	return e.buf
}

// quantiseOne maps one value to its packed code using stochastic
// rounding. scale is strictly positive.
func (e *refQSGDEncoder) quantiseOne(v float32, scale, s float64) uint32 {
	if e.q.scheme == Uniform {
		// Position in [0, s] across the symmetric interval.
		x := (float64(v) + scale) / (2 * scale) * s
		return uint32(stochasticRound(x, s, e.rng))
	}
	a := float64(v)
	neg := a < 0
	if neg {
		a = -a
	}
	var lvl int
	if e.q.scheme == Exponential {
		lvl = expRound(a/scale, int(s), e.rng)
	} else {
		lvl = stochasticRound(a/scale*s, s, e.rng)
	}
	code := uint32(lvl)
	if neg {
		code |= 1 << uint(e.q.bits-1)
	}
	return code
}

// expRound rounds a ∈ [0, 1] to a level index in [0, s] on the
// exponential grid {0, 2^{1−s}, …, ½, 1} such that the expectation of
// the decoded value equals a (unbiased).
func expRound(a float64, s int, r *rng.RNG) int {
	if a <= 0 {
		return 0
	}
	if a >= 1 {
		return s
	}
	// Find j with level(j) ≤ a < level(j+1).
	exp := math.Ilogb(a) // a ∈ [2^exp, 2^{exp+1})
	j := exp + s
	if j < 0 {
		j = 0
	}
	lo, hi := expLevel(j, s), expLevel(j+1, s)
	if r.Float64() < (a-lo)/(hi-lo) {
		j++
	}
	return j
}

// stochasticRound rounds x ∈ [0, s] to an integer level in [0, s] such
// that the expectation equals x: level ℓ = ⌊x⌋ is bumped to ℓ+1 with
// probability x − ℓ. Values outside the range (floating-point spill) are
// clamped.
func stochasticRound(x, s float64, r *rng.RNG) int {
	if x <= 0 {
		return 0
	}
	if x >= s {
		return int(s)
	}
	l := math.Floor(x)
	if r.Float64() < x-l {
		l++
	}
	return int(l)
}

// refBucketScale computes the bucket's normalisation factor.
func refBucketScale(grp []float32, n Norm) float32 {
	if n == TwoNorm {
		var s float64
		for _, v := range grp {
			s += float64(v) * float64(v)
		}
		return float32(math.Sqrt(s))
	}
	var mx float32
	for _, v := range grp {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return mx
}

// refQSGDDecode is the scalar reference for QSGD.Decode.
func refQSGDDecode(q QSGD, wire []byte, n int, shape Shape, dst []float32) error {
	want := q.EncodedBytes(n, shape)
	if len(wire) != want {
		return fmt.Errorf("quant: qsgd wire length %d, want %d", len(wire), want)
	}
	if len(dst) != n {
		return fmt.Errorf("quant: qsgd dst length %d, want %d", len(dst), n)
	}
	s := float32(q.Levels())
	mask := uint32(1)<<uint(q.bits) - 1
	signBit := uint32(1) << uint(q.bits-1)
	lvlMask := signBit - 1
	off := 0
	for start := 0; start < n; start += q.bucket {
		end := start + q.bucket
		if end > n {
			end = n
		}
		c := end - start
		scale := math.Float32frombits(binary.LittleEndian.Uint32(wire[off:]))
		off += 4
		perWord := 32 / q.bits
		for i := 0; i < c; i++ {
			word := binary.LittleEndian.Uint32(wire[off+4*(i/perWord):])
			code := (word >> (uint(i%perWord) * uint(q.bits))) & mask
			var v float32
			switch q.scheme {
			case Uniform:
				v = -scale + 2*scale*float32(code)/s
			case Exponential:
				v = scale * float32(expLevel(int(code&lvlMask), int(s)))
				if code&signBit != 0 {
					v = -v
				}
			default:
				lvl := float32(code & lvlMask)
				v = scale * lvl / s
				if code&signBit != 0 {
					v = -v
				}
			}
			dst[start+i] = v
		}
		off += 4 * words32(c*q.bits)
	}
	return nil
}
