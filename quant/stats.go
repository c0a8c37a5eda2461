package quant

import "math"

// ErrorStats summarises the distortion a codec introduces on one
// gradient vector: per-round root-mean-square error, empirical bias of
// the mean estimate across rounds, and the achieved wire compression.
// It is the measurement behind the study's accuracy reasoning —
// quantisation variance is what slows or derails convergence.
type ErrorStats struct {
	// RMSE is the root-mean-square error of a single encode/decode
	// round (averaged over rounds for stochastic codecs).
	RMSE float64
	// MeanAbsBias is the mean absolute difference between the original
	// vector and the decoded values averaged across rounds; near zero
	// for unbiased codecs (QSGD) and for error-feedback codecs measured
	// over many rounds.
	MeanAbsBias float64
	// CompressionRatio is raw bytes divided by wire bytes.
	CompressionRatio float64
}

// MeasureError runs `rounds` encode/decode cycles of src through a
// fresh encoder and reports the distortion statistics. For
// error-feedback codecs the same encoder is reused so residuals behave
// as they would in training.
func MeasureError(c Codec, src []float32, shape Shape, rounds int, seed uint64) ErrorStats {
	n := len(src)
	if n == 0 || rounds <= 0 {
		return ErrorStats{CompressionRatio: 1}
	}
	enc := c.NewEncoder(n, shape, seed)
	dst := make([]float32, n)
	sum := make([]float64, n)
	var sqErr float64
	var wireBytes int
	for round := 0; round < rounds; round++ {
		wire := enc.Encode(src)
		wireBytes = len(wire)
		if err := c.Decode(wire, n, shape, dst); err != nil {
			// Encoder output must always decode; a failure here is a
			// codec bug and zero stats make it visible in callers.
			return ErrorStats{}
		}
		for i, v := range dst {
			d := float64(v) - float64(src[i])
			sqErr += float64(d * d)
			sum[i] += float64(v)
		}
	}
	var bias float64
	for i := range sum {
		bias += math.Abs(sum[i]/float64(rounds) - float64(src[i]))
	}
	ratio := 1.0
	if wireBytes > 0 {
		ratio = float64(4*n) / float64(wireBytes)
	}
	return ErrorStats{
		RMSE:             math.Sqrt(sqErr / float64(n*rounds)),
		MeanAbsBias:      bias / float64(n),
		CompressionRatio: ratio,
	}
}

// GradNorms returns the L2 and max-absolute (inf) norms of one
// gradient vector — the per-tensor convergence signals the telemetry
// plane samples and the adaptive-precision roadmap item consumes.
// Accumulation is in float64 so catastrophic cancellation on large
// tensors does not distort the telemetry.
func GradNorms(src []float32) (l2, inf float64) {
	var sq float64
	for _, v := range src {
		f := float64(v)
		sq += float64(f * f)
		if a := math.Abs(f); a > inf {
			inf = a
		}
	}
	return math.Sqrt(sq), inf
}
