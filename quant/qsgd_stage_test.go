package quant

import (
	"testing"

	"repro/rng"
)

// stageSink keeps the compiler from dropping a stage whose result the
// benchmark does not otherwise use.
var stageSink float32

// BenchmarkQSGDStages times the four stages of the encoder one at a
// time over the input of BenchmarkEncodeQSGD/4bit (1 Mi Gaussian
// elements, buckets of 512, sign-magnitude, max norm), one chunk per
// kernel call as Encode makes them: the bucket's max norm, the float
// pass, the draw pass and the pack. ns/op divided by 2^20 is the
// stage's cost per element.
func BenchmarkQSGDStages(b *testing.B) {
	const n, bucket, bits = 1 << 20, 512, 4
	src := randVec(rng.New(1), n)
	q := NewQSGD(bits, bucket, MaxNorm)
	s := float64(q.Levels())
	scales := make([]float64, n/bucket)
	for i := range scales {
		scales[i] = float64(bucketScale(src[i*bucket:(i+1)*bucket], MaxNorm))
	}
	// The float pass's output for every element, for the later stages.
	codes, frac, draw := make([]uint32, n), make([]float64, n), make([]uint8, n)
	var sc qsgdScratch
	for i := 0; i < n; i += codeChunk {
		encodeSignMagnitude(&sc, src[i:i+codeChunk], scales[i/bucket], s, bits)
		copy(codes[i:], sc.codes[:])
		copy(frac[i:], sc.frac[:])
		copy(draw[i:], sc.draw[:])
	}
	wire := make([]byte, n*bits/8)
	b.Run("maxnorm", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i += bucket {
				stageSink += bucketScale(src[i:i+bucket], MaxNorm)
			}
		}
	})
	b.Run("float", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i += codeChunk {
				encodeSignMagnitude(&sc, src[i:i+codeChunk], scales[i/bucket], s, bits)
			}
		}
	})
	b.Run("draw", func(b *testing.B) {
		state := uint64(1)
		for it := 0; it < b.N; it++ {
			for i := 0; i < n; i += codeChunk {
				state = drawLevels(codes[i:i+codeChunk], frac[i:], draw[i:], state)
			}
		}
		stageSink += float32(state & 1)
	})
	b.Run("pack", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			dst := wire
			for i := 0; i < n; i += codeChunk {
				dst = packCodes(dst, codes[i:i+codeChunk], bits)
			}
		}
	})
}
