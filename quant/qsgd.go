package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/rng"
	"repro/tensor"
)

// Norm selects the scaling factor QSGD normalises a bucket by (paper
// §3.2.2): the bucket's maximum absolute value preserves more information
// and gave the paper better accuracy, while the Euclidean norm yields
// sparser quantised vectors and matches the original QSGD analysis.
type Norm int

const (
	// MaxNorm scales by max|v_i| (infinity norm) — the paper's default.
	MaxNorm Norm = iota
	// TwoNorm scales by ‖v‖₂ as in the original QSGD paper.
	TwoNorm
)

// String returns the norm's short label.
func (n Norm) String() string {
	if n == TwoNorm {
		return "l2"
	}
	return "max"
}

// Scheme selects how quantisation levels are laid out (the paper
// implements both, §3.2.2).
type Scheme int

const (
	// SignMagnitude spends one bit on the sign and the rest on a level in
	// [0, s] with s = 2^(bits−1) − 1 — the faithful QSGD construction.
	SignMagnitude Scheme = iota
	// Uniform divides [−scale, +scale] into 2^bits − 1 equal intervals
	// whose endpoints are the levels.
	Uniform
	// Exponential places the positive levels at scale·2^{j−s}
	// (logarithmic spacing), following the non-uniform level
	// distributions the paper references for variance reduction (§2.3:
	// "algorithms in which quantization levels are distributed to
	// further minimize variance"; cf. ZipML and logarithmic data
	// representations). The paper implemented such a variant for
	// gradients and "does not observe significant improvement" — this
	// codec lets that experiment be repeated.
	Exponential
)

// String returns the scheme's short label.
func (s Scheme) String() string {
	switch s {
	case Uniform:
		return "uni"
	case Exponential:
		return "exp"
	default:
		return "sm"
	}
}

// QSGD is the stochastic quantisation codec of Alistarh et al. (paper
// §2.3): each bucket is scaled by its norm and every component is rounded
// stochastically to one of s uniformly spaced levels such that the result
// is unbiased (E[Q(v)] = v) with minimal variance. Unlike 1bitSGD, QSGD
// needs no error feedback — unbiasedness alone guarantees convergence.
//
// Wire layout per bucket of c elements:
//
//	float32 scale | ⌈c·bits/32⌉ × uint32 packed codes
//
// Codes are bits wide, packed LSB-first; since bits ∈ {2,4,8,16} divides
// 32, no code straddles a word — mirroring CNTK's packing of quantised
// values into GPU-friendly integer words.
//
// Kernel contract. Wire bytes, the random stream and the decoded floats
// are pinned bit for bit (qsgd_ref_test.go holds the scalar reference,
// testdata/qsgd_wire.golden the hashes): training digests, the TCP byte
// parity tests and the simulator's goldens all hang off them. What an
// optimisation may therefore not "simplify":
//
//   - Encode computes x in float64 as a division and then a
//     multiplication, |v|/scale·s (uniform: (v+scale)/(2·scale)·s;
//     exponential: |v|/scale against the level grid) — never v·(s/scale),
//     never float32.
//   - Elements take their draws from one splitmix64 stream in element
//     order, one rng.RNG.Float64-equivalent draw iff 0 < x < s (0 < a < 1
//     for exponential). Zeros, the bucket maximum and every element of a
//     bucket whose scale is not positive draw nothing, so the stream
//     position after Encode depends on the data.
//   - Counter-based, the same rule reads: element i of a run entered at
//     stream position p sees the bits r_i = mix(p + γ·(1 + d_i)), with γ
//     splitmix64's increment, mix its output function and d_i the number
//     of drawing elements before i; its level is bumped iff
//     UnitFloat64(r_i) < frac_i; the run leaves the stream at p + γ·d_n.
//     This holds for drawing and non-drawing elements alike, and a
//     non-drawing element (x = 0, x = s, NaN) has frac 0 or NaN and is
//     never bumped, so the r it sees is immaterial. The vector draw relies
//     on this: within a group of four, d_i is a table lookup on the
//     group's draw mask, one add per group is the only serial step, and
//     UnitFloat64(r) < frac is decided exactly (r>>11 < 2^53 converts to
//     float64 without rounding).
//   - The sign bit is set iff v < 0: −0 encodes as +0, a negative value
//     that rounds to level 0 keeps its sign bit.
//   - Decode's per-bucket table holds, for every code, the value of the
//     scalar expression itself (scale·float32(level)/s negated under the
//     sign bit; −scale+2·scale·float32(code)/s; scale·float32(2^{level−s}))
//     — in float32, in that operation order. The AVX2 table decode (2 and
//     4 bits) reads that table and writes each code's entry; it computes
//     nothing itself, so its floats are the portable lookup's.
//   - DecodeAdd adds each decoded value to the accumulator with the
//     accumulator as the addition's first operand — VADDPS's first source
//     in the table kernel, as in tensor.Add's kernel — so that of two NaNs
//     the accumulator's survives on both sides of "Decode then
//     tensor.Add". Every other addition of DecodeAdd is a tensor.Add.
//   - The AVX2 pack (2, 4 and 8 bits) narrows the codes to bytes and
//     joins neighbours with multiply-adds, 32 bytes of words per block;
//     its words are the per-width shifts' bit for bit.
//
// Non-finite input is outside the bit-exact contract with the scalar
// reference, though not between this package's own paths: the AVX2 and
// the portable encoder write the same bytes and leave the same stream
// position on every input, so ranks on different hosts agree. An
// element whose x is NaN (a NaN value, or ±Inf in a bucket scaled by
// Inf) draws nothing, where the scalar reference drew once. Its level
// is 0: for the exponential scheme by construction, for the linear ones
// because the float-to-int conversions in use (amd64's 64- and 32-bit
// ones, arm64's) make of NaN a value whose bits under the level's mask
// are 0. A NaN is skipped by the max norm and poisons the 2-norm; a
// bucket whose scale is NaN gets all-zero codes. A NaN scale decodes to
// NaNs whose sign and payload are not pinned.
type QSGD struct {
	bits   int
	bucket int
	norm   Norm
	scheme Scheme
}

// NewQSGD returns a sign-magnitude QSGD codec. bits must be 2, 4, 8 or
// 16; bucket must be positive.
func NewQSGD(bits, bucket int, norm Norm) QSGD {
	return NewQSGDScheme(bits, bucket, norm, SignMagnitude)
}

// NewQSGDScheme returns a QSGD codec with an explicit level scheme.
func NewQSGDScheme(bits, bucket int, norm Norm, scheme Scheme) QSGD {
	switch bits {
	case 2, 4, 8, 16:
	default:
		panic(fmt.Sprintf("quant: QSGD bits must be 2/4/8/16, got %d", bits))
	}
	if bucket <= 0 {
		panic("quant: QSGD bucket must be positive")
	}
	return QSGD{bits: bits, bucket: bucket, norm: norm, scheme: scheme}
}

// Bits returns the per-component wire width, including the sign bit.
func (q QSGD) Bits() int { return q.bits }

// Bucket returns the bucket size.
func (q QSGD) Bucket() int { return q.bucket }

// Levels returns the number of positive quantisation levels s.
func (q QSGD) Levels() int {
	if q.scheme == Uniform {
		return (1 << q.bits) - 2 // index range is [0, 2^bits-2]
	}
	return 1<<(q.bits-1) - 1
}

// Name implements Codec.
func (q QSGD) Name() string {
	name := fmt.Sprintf("qsgd%db%d", q.bits, q.bucket)
	if q.norm != MaxNorm {
		name += "-" + q.norm.String()
	}
	if q.scheme != SignMagnitude {
		name += "-" + q.scheme.String()
	}
	return name
}

// GroupSize implements Codec.
func (q QSGD) GroupSize(Shape) int { return q.bucket }

// EncodedBytes implements Codec.
func (q QSGD) EncodedBytes(n int, _ Shape) int {
	if n == 0 {
		return 0
	}
	full := n / q.bucket
	bytes := full * (4 + 4*words32(q.bucket*q.bits))
	if rem := n % q.bucket; rem > 0 {
		bytes += 4 + 4*words32(rem*q.bits)
	}
	return bytes
}

// NewEncoder implements Codec.
func (q QSGD) NewEncoder(n int, shape Shape, seed uint64) Encoder {
	e := &qsgdEncoder{
		q:      q,
		n:      n,
		buf:    make([]byte, q.EncodedBytes(n, shape)),
		state:  seed,
		framer: newFramer(q, n, shape),
	}
	switch q.scheme {
	case Uniform:
		e.kernel = encodeUniform
	case Exponential:
		e.kernel = encodeExponential
	default:
		e.kernel = encodeSignMagnitude
	}
	return e
}

// qsgdEncodeKernel is the deterministic half of quantising a run of at
// most codeChunk elements of a bucket with strictly positive scale. For
// element i it writes to sc.codes[i] the lower of the two candidate
// codes (level ⌊x⌋ and, for the signed schemes, the sign bit), to
// sc.frac[i] the probability with which the level is to be bumped by
// one, and to sc.draw[i] whether the element consumes a draw at all
// (1 or 0). drawLevels does the stochastic half.
type qsgdEncodeKernel func(sc *qsgdScratch, vals []float32, scale, s float64, bits uint)

// codeChunk is how many elements a kernel handles per call: a multiple
// of every codes-per-word count (2, 4, 8, 16), so only a bucket's last
// chunk can end in a partial word. A chunk's scratch (13 bytes an
// element) stays in L1; 256 rather than 64 measured 10–15 % faster on
// the vector kernels, which pay a fixed set-up per call.
const codeChunk = 256

// qsgdScratch is what a qsgdEncodeKernel hands to drawLevels.
type qsgdScratch struct {
	codes [codeChunk]uint32
	frac  [codeChunk]float64
	draw  [codeChunk]uint8
}

type qsgdEncoder struct {
	q   QSGD
	n   int
	buf []byte
	// state is the splitmix64 stream position (rng.Step), equal to that
	// of an rng.RNG seeded alike after the same number of draws.
	state uint64
	// kernel is the scheme's kernel, chosen once in NewEncoder.
	kernel qsgdEncodeKernel
	// scratch lives here, not on Encode's stack, because arguments of
	// a call through a function value escape.
	scratch qsgdScratch
	framer
}

// Reseed implements Reseeder: the RNG stream is the encoder's only
// mutable state, so repositioning it makes the encoder bit-identical
// to a freshly built one with the same seed.
func (e *qsgdEncoder) Reseed(seed uint64) { e.state = seed }

// Encode implements Encoder.
//
// A bucket goes through four stages: its scale (bucketScale), then, per
// chunk of at most codeChunk elements, the scheme's float pass (the
// kernel), the draw pass (drawLevels) and the pack (packCodes). The
// float pass does the float work, which does not depend on the random
// stream; the draw pass then walks the stream. Fused, every element's
// divide-and-compare would sit between two steps of the generator
// (whether element i draws decides the state element i+1 sees) and the
// loop would run at the latency of that whole chain; split, the
// generator's chain is an add and a conditional move per element, or
// one add per four elements on the vector draw.
//
// On amd64 with AVX2, the max norm (tensor.MaxAbs), the linear schemes'
// float pass and every scheme's draw pass run on vector kernels
// (qsgd_amd64.s) in whole groups of four elements, and the 2-, 4- and
// 8-bit pack in whole blocks of eight words; the portable loops take
// the rest of a chunk, and everything on other hosts.
func (e *qsgdEncoder) Encode(src []float32) []byte {
	if len(src) != e.n {
		panic(fmt.Sprintf("quant: qsgd encoder got %d values, want %d", len(src), e.n))
	}
	q := e.q
	s := float64(q.Levels())
	bits := uint(q.bits)
	state := e.state
	off := 0
	for start := 0; start < e.n; start += q.bucket {
		grp := src[start:min(start+q.bucket, e.n)]
		scale := bucketScale(grp, q.norm)
		binary.LittleEndian.PutUint32(e.buf[off:], math.Float32bits(scale))
		off += 4
		dst := e.buf[off : off+4*words32(len(grp)*q.bits)]
		off += len(dst)
		if !(scale > 0) {
			clear(dst) // zero or NaN scale: all-zero codes, no draws
			continue
		}
		for len(grp) > 0 {
			vals := grp[:min(codeChunk, len(grp))]
			grp = grp[len(vals):]
			sc := &e.scratch
			e.kernel(sc, vals, float64(scale), s, bits)
			codes := sc.codes[:len(vals)]
			state = drawLevels(codes, sc.frac[:], sc.draw[:], state)
			dst = packCodes(dst, codes, bits)
		}
	}
	e.state = state
	return e.buf
}

// EncodeTo implements Encoder.
func (e *qsgdEncoder) EncodeTo(w io.Writer, src []float32) (int, error) {
	return e.encodeTo(w, e.Encode(src))
}

// drawLevels is the stochastic half of the encoder, shared by every
// scheme: codes[i] is bumped by one with probability frac[i], taking
// one draw from the splitmix64 stream at state iff draw[i] is set, in
// element order. It returns the stream position. On AVX2 the kernel
// takes whole groups of four and drawLevelsGo the rest.
func drawLevels(codes []uint32, frac []float64, draw []uint8, state uint64) uint64 {
	n, state := drawLevelsAsm(codes, frac, draw, state)
	return drawLevelsGo(codes[n:], frac[n:], draw[n:], state)
}

// drawLevelsGo is drawLevels' portable loop. The bump and the state
// update are conditional assignments of integers, which the compiler
// lowers to SETcc/CMOV: for a gradient both are coin flips no branch
// predictor can learn.
func drawLevelsGo(codes []uint32, frac []float64, draw []uint8, state uint64) uint64 {
	frac, draw = frac[:len(codes)], draw[:len(codes)]
	for i, c := range codes {
		next, r := rng.Step(state)
		if rng.UnitFloat64(r) < frac[i] {
			c++
		}
		if draw[i] != 0 {
			state = next
		}
		codes[i] = c
	}
	return state
}

// packCodes packs codes, each below 2^bits, LSB-first and 32/bits to a
// little-endian word into the first ⌈len(codes)·bits/32⌉ words of dst
// and returns the rest of dst. On AVX2 the kernel takes whole blocks of
// eight words at 2, 4 and 8 bits; the remaining whole words are
// assembled with constant shifts, one case per width, and the last,
// partial word of a bucket goes through the generic loop.
func packCodes(dst []byte, codes []uint32, bits uint) []byte {
	n := packCodesAsm(dst, codes, bits)
	dst, codes = dst[n*int(bits)/8:], codes[n:]
	switch bits {
	case 2:
		for ; len(codes) >= 16; codes = codes[16:] {
			c := codes[:16]
			lo := c[0] | c[1]<<2 | c[2]<<4 | c[3]<<6 | c[4]<<8 | c[5]<<10 | c[6]<<12 | c[7]<<14
			hi := c[8] | c[9]<<2 | c[10]<<4 | c[11]<<6 | c[12]<<8 | c[13]<<10 | c[14]<<12 | c[15]<<14
			binary.LittleEndian.PutUint32(dst, lo|hi<<16)
			dst = dst[4:]
		}
	case 4:
		for ; len(codes) >= 8; codes = codes[8:] {
			c := codes[:8]
			lo := c[0] | c[1]<<4 | c[2]<<8 | c[3]<<12
			hi := c[4] | c[5]<<4 | c[6]<<8 | c[7]<<12
			binary.LittleEndian.PutUint32(dst, lo|hi<<16)
			dst = dst[4:]
		}
	case 8:
		for ; len(codes) >= 4; codes = codes[4:] {
			c := codes[:4]
			binary.LittleEndian.PutUint32(dst, c[0]|c[1]<<8|c[2]<<16|c[3]<<24)
			dst = dst[4:]
		}
	case 16:
		for ; len(codes) >= 2; codes = codes[2:] {
			binary.LittleEndian.PutUint32(dst, codes[0]|codes[1]<<16)
			dst = dst[4:]
		}
	}
	if len(codes) == 0 {
		return dst
	}
	var word uint32
	for i, c := range codes {
		word |= c << (uint(i) * bits & 31)
	}
	binary.LittleEndian.PutUint32(dst, word)
	return dst[4:]
}

// encodeSignMagnitude is the qsgdEncodeKernel of the SignMagnitude
// scheme: x = |v|/scale·s under the sign bit of v.
func encodeSignMagnitude(sc *qsgdScratch, vals []float32, scale, s float64, bits uint) {
	encodeLinear(sc, vals, 0, scale, s, 1<<31, bits)
}

// encodeUniform is the qsgdEncodeKernel of the Uniform scheme: x =
// (v+scale)/(2·scale)·s, the position in [0, s] across the symmetric
// interval.
func encodeUniform(sc *qsgdScratch, vals []float32, scale, s float64, bits uint) {
	encodeLinear(sc, vals, scale, 2*scale, s, 0, bits)
}

// encodeLinear is the loop the two linearly spaced schemes share. Each
// element becomes x = (v′+shift)/width·s ∈ [0, s] in float64 — a
// division and then a multiplication, in that order — where v′ is v
// with the float32 bits in signMask cleared. The level is ⌊x⌋, bumped
// with probability x−⌊x⌋ (unbiased), and a draw is consumed iff
// 0 < x < s: zeros, the bucket maximum and a NaN consume nothing.
// signMask is 1<<31 for sign-magnitude (v′ = |v|, and v′+0 is exact),
// where the code's top bit is set iff v < 0; it is 0 for uniform. On
// AVX2 the kernel takes whole groups of four and encodeLinearGo the
// rest.
func encodeLinear(sc *qsgdScratch, vals []float32, shift, width, s float64, signMask uint32, bits uint) {
	absMask := ^signMask
	signBit := signMask >> ((32 - bits) & 31)
	lvlMask := uint32(1)<<(bits&31) - 1 - signBit
	n := encodeLinearAsm(sc, vals, shift, width, s, absMask, signBit, lvlMask)
	encodeLinearGo(sc.codes[n:len(vals)], sc.frac[n:], sc.draw[n:], vals[n:], shift, width, s, absMask, signBit, lvlMask)
}

// encodeLinearGo is encodeLinear's portable loop over the elements
// vals, writing codes, frac and draw from their start.
func encodeLinearGo(codes []uint32, frac []float64, draw []uint8, vals []float32, shift, width, s float64, absMask, signBit, lvlMask uint32) {
	codes, frac, draw = codes[:len(vals)], frac[:len(vals)], draw[:len(vals)]
	for i, v := range vals {
		b := math.Float32bits(v)
		mag := b & absMask
		// v < 0 is b's sign bit unless the magnitude is zero (−0
		// encodes like +0): −mag has its top bit set iff mag ≠ 0.
		neg := uint32(int32(b&-mag) >> 31)
		// Rounded here: frac below would otherwise fuse the product
		// into an FMA on arm64 and draw differently than on amd64.
		x := float64((float64(math.Float32frombits(mag)) + shift) / width * s)
		l := int(x) // ⌊x⌋, as x ≥ 0
		var above, below uint8
		if x > 0 {
			above = 1
		}
		if x < s {
			below = 1
		}
		codes[i] = uint32(l)&lvlMask | neg&signBit
		frac[i] = x - float64(l) // 0 at x = 0 and x = s
		draw[i] = above & below
	}
}

// encodeExponential is the qsgdEncodeKernel of the Exponential scheme:
// a = |v|/scale ∈ [0, 1] lies between two neighbours lo ≤ a < hi of the
// grid {0, 2^{1−s}, …, ½, 1}; the level is lo's index, bumped with
// probability (a−lo)/(hi−lo) (unbiased). A draw is consumed iff
// 0 < a < 1.
func encodeExponential(sc *qsgdScratch, vals []float32, scale, s float64, bits uint) {
	signBit := uint32(1) << ((bits - 1) & 31)
	top := int(s)
	first := expLevel(1, top) // the level above 0; underflows to 0 at 16 bits
	for i, v := range vals {
		b := math.Float32bits(v)
		mag := b &^ (1 << 31)
		neg := uint32(int32(b&-mag) >> 31)
		a := float64(math.Float32frombits(mag)) / scale
		// A quotient of float32s is never a float64 subnormal, so for
		// 0 < a ≤ 1 the exponent field is Ilogb(a), the level below a is
		// j = Ilogb(a)+s with value lo = a's bits with the mantissa
		// cleared, and the level above is exactly twice that. At a = 1
		// this gives j = s and probability 0, at a = 0 probability 0 or
		// NaN — no bump either way.
		ab := math.Float64bits(a)
		j := int(ab>>52) - 1023 + top
		lo := math.Float64frombits(ab &^ (1<<52 - 1))
		hi := 2 * lo
		if j <= 0 {
			j, lo, hi = 0, 0, first
		}
		var above, below uint8
		if a > 0 {
			above = 1
		}
		if a < 1 {
			below = 1
		}
		j &= -int(above) // a = 0 (any exponent field) and NaN: level 0
		sc.codes[i%codeChunk] = uint32(j)&(signBit-1) | neg&signBit
		sc.frac[i%codeChunk] = (a - lo) / (hi - lo)
		sc.draw[i%codeChunk] = above & below
	}
}

// expLevel returns the exponential-scheme level value 2^{j−s} for
// j ≥ 1, and 0 for j = 0.
func expLevel(j, s int) float64 {
	if j <= 0 {
		return 0
	}
	return math.Ldexp(1, j-s)
}

// bucketScale computes the bucket's normalisation factor: ‖v‖₂ summed
// in float64 in element order, or max|v| (a NaN skipped).
func bucketScale(grp []float32, n Norm) float32 {
	if n == TwoNorm {
		var s float64
		for _, v := range grp {
			s += float64(float64(v) * float64(v))
		}
		return float32(math.Sqrt(s))
	}
	return tensor.MaxAbs(grp)
}

// tableDecode reports whether a per-bucket table of all 2^bits decoded
// values pays for itself. Building it costs one dequantisation per
// entry plus clearing the table, so the code space must be small
// against the bucket. Measured on every scheme, the table first wins at
// a bucket of 32 for 2 and 4 bits and of 128–256 for 8 bits; 2^16
// entries never do.
func (q QSGD) tableDecode() bool {
	return q.bits <= 8 && q.bucket >= max(32, 1<<q.bits)
}

// identityCodes[c] = c: dequantising it yields the decode table.
var identityCodes = func() (t [256]uint32) {
	for c := range t {
		t[c] = uint32(c)
	}
	return t
}()

// Decode implements Codec.
func (q QSGD) Decode(wire []byte, n int, shape Shape, dst []float32) error {
	return q.decode(wire, n, shape, dst, false)
}

// DecodeAdd implements Codec.
func (q QSGD) DecodeAdd(wire []byte, n int, shape Shape, acc []float32) error {
	return q.decode(wire, n, shape, acc, true)
}

// decode is Decode, or with add set DecodeAdd.
//
// Whether buckets go through a table is decided once, here; the
// scheme's dequantiser is reached through a static switch per bucket
// (or per chunk of a table-less bucket) rather than through a function
// value, because a table handed to a function value would escape to
// the heap. On AVX2 the kernel decodes (and adds) the whole words of a
// 2- or 4-bit table bucket. Every other code is decoded into dst, or,
// to be added with tensor.Add, a chunk at a time into a chunk on the
// stack.
func (q QSGD) decode(wire []byte, n int, shape Shape, dst []float32, add bool) error {
	want := q.EncodedBytes(n, shape)
	if len(wire) != want {
		return fmt.Errorf("quant: qsgd wire length %d, want %d", len(wire), want)
	}
	if len(dst) != n {
		return fmt.Errorf("quant: qsgd dst length %d, want %d", len(dst), n)
	}
	s := float32(q.Levels())
	bits := uint(q.bits)
	table := q.tableDecode()
	var (
		tab   [256]float32
		chunk [codeChunk]uint32
		vals  [codeChunk]float32
	)
	off := 0
	for start := 0; start < n; start += q.bucket {
		out := dst[start:min(start+q.bucket, n)]
		scale := math.Float32frombits(binary.LittleEndian.Uint32(wire[off:]))
		off += 4
		codes := wire[off : off+4*words32(len(out)*q.bits)]
		off += len(codes)
		if table {
			q.dequantise(tab[:1<<bits], identityCodes[:1<<bits], scale, s)
			i := lookupCodesAsm(out, codes, &tab, bits, add)
			out, codes = out[i:], codes[i*q.bits/8:]
			if !add {
				lookupCodes(out, codes, &tab, bits)
				continue
			}
		}
		for len(out) > 0 {
			m := min(codeChunk, len(out))
			dec := out[:m]
			if add {
				dec = vals[:m]
			}
			if table {
				lookupCodes(dec, codes, &tab, bits)
			} else {
				unpackCodes(chunk[:m], codes, bits)
				q.dequantise(dec, chunk[:m], scale, s)
			}
			if add {
				tensor.Add(out[:m], dec)
			}
			out, codes = out[m:], codes[m*q.bits/8:]
		}
	}
	return nil
}

// dequantise writes the value of each code under the bucket's scale to
// out. These are the only copies of the three decode expressions: the
// table path gets its entries from here too, so it cannot drift from
// the direct path by a rounding.
func (q QSGD) dequantise(out []float32, codes []uint32, scale, s float32) {
	codes = codes[:len(out)]
	signBit := uint32(1) << (q.bits - 1)
	// Negation is a flip of the float's sign bit; moving the code's sign
	// bit there does it without a branch on what is a coin flip.
	signUp := uint(32-q.bits) & 31
	switch q.scheme {
	case Uniform: // −scale + 2·scale·code/s
		for i, c := range codes {
			out[i] = -scale + 2*scale*float32(c)/s
		}
	case Exponential: // ±scale·2^{level−s}, and 0 at level 0
		for i, c := range codes {
			v := scale * float32(expLevel(int(c&(signBit-1)), int(s)))
			out[i] = math.Float32frombits(math.Float32bits(v) ^ c&signBit<<signUp)
		}
	default: // ±scale·level/s
		for i, c := range codes {
			v := scale * float32(c&(signBit-1)) / s
			out[i] = math.Float32frombits(math.Float32bits(v) ^ c&signBit<<signUp)
		}
	}
}

// unpackCodes is packCodes' inverse for len(out) codes. A chunk of
// codeChunk codes is a whole number of words, so only the last call for
// a bucket can stop inside one.
func unpackCodes(out []uint32, codes []byte, bits uint) {
	mask := uint32(1)<<(bits&31) - 1
	var word uint32
	var left uint // bits of word not yet consumed
	for i := range out {
		if left == 0 {
			word, codes, left = binary.LittleEndian.Uint32(codes), codes[4:], 32
		}
		out[i] = word & mask
		word >>= bits & 31
		left -= bits
	}
}

// lookupCodes writes the table entry of each of len(out) packed codes
// to out. Little-endian words packed LSB-first are a byte stream packed
// LSB-first, and every table width (2, 4, 8) divides a byte, so whole
// bytes are unpacked with constant shifts; the generic last loop takes
// the codes of a final partial byte.
func lookupCodes(out []float32, codes []byte, tab *[256]float32, bits uint) {
	i := 0
	switch bits {
	case 8:
		for ; i < len(out); i++ {
			out[i] = tab[codes[i]]
		}
	case 4:
		for ; i+2 <= len(out); i += 2 {
			b := codes[i/2]
			out[i], out[i+1] = tab[b&15], tab[b>>4]
		}
	case 2:
		for ; i+4 <= len(out); i += 4 {
			b := codes[i/4]
			out[i], out[i+1], out[i+2], out[i+3] = tab[b&3], tab[b>>2&3], tab[b>>4&3], tab[b>>6]
		}
	}
	for ; i < len(out); i++ {
		out[i] = tab[codes[uint(i)*bits/8]>>(uint(i)*bits%8)&(1<<bits-1)]
	}
}
