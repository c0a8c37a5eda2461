package nn

import (
	"fmt"
	"math"

	"repro/tensor"
)

// SoftmaxCrossEntropy combines the softmax activation with the
// cross-entropy loss, the standard classification head. It is not a
// Layer: it terminates the network, consuming logits and integer labels.
type SoftmaxCrossEntropy struct {
	probs *tensor.Matrix
	dx    *tensor.Matrix
}

// NewSoftmaxCrossEntropy returns a fresh loss head.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy {
	return &SoftmaxCrossEntropy{}
}

// Forward computes the mean cross-entropy of logits against labels and
// caches the softmax probabilities for Backward. labels[i] is the class
// of sample i.
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Matrix, labels []int) float64 {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d logits rows", len(labels), logits.Rows))
	}
	l.probs = tensor.Reuse(l.probs, logits.Rows, logits.Cols)
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		// Stabilised softmax.
		mx := row[0]
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		p := l.probs.Row(i)
		for j, v := range row {
			e := math.Exp(float64(v - mx))
			p[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range p {
			p[j] *= inv
		}
		cls := labels[i]
		if cls < 0 || cls >= logits.Cols {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", cls, logits.Cols))
		}
		loss -= math.Log(math.Max(float64(p[cls]), 1e-12))
	}
	return loss / float64(logits.Rows)
}

// Backward returns the gradient of the mean loss with respect to the
// logits: (softmax − onehot)/batch.
func (l *SoftmaxCrossEntropy) Backward(labels []int) *tensor.Matrix {
	l.dx = tensor.Reuse(l.dx, l.probs.Rows, l.probs.Cols)
	inv := 1 / float32(l.probs.Rows)
	for i := 0; i < l.probs.Rows; i++ {
		p := l.probs.Row(i)
		d := l.dx.Row(i)
		for j, v := range p {
			d[j] = v * inv
		}
		d[labels[i]] -= inv
	}
	return l.dx
}

// Probs returns the most recent softmax probabilities (valid after
// Forward).
func (l *SoftmaxCrossEntropy) Probs() *tensor.Matrix { return l.probs }

// Accuracy returns the top-1 accuracy of logits against labels.
func Accuracy(logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		if logits.ArgMaxRow(i) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}

// TopKAccuracy returns the fraction of samples whose true label is among
// the k highest logits (the paper reports top-1 and top-5).
func TopKAccuracy(logits *tensor.Matrix, labels []int, k int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		row := logits.Row(i)
		target := row[labels[i]]
		higher := 0
		for _, v := range row {
			if v > target {
				higher++
			}
		}
		if higher < k {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}
