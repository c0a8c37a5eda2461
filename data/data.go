// Package data generates the deterministic synthetic datasets the
// reproduction trains on. The paper uses ImageNet, CIFAR-10 and the AN4
// speech corpus; those cannot ship with a self-contained repository, so
// this package substitutes class-structured synthetic tasks that exercise
// the same training dynamics: convolutional feature extraction over
// noisy, spatially structured images, and recurrent classification of
// noisy multi-frame sequences (spectrogram-like, as AN4 preprocessing
// produces).
//
// What matters for the paper's accuracy study is not the pixels but the
// optimisation behaviour: gradients with realistic signal-to-noise
// ratios, so that quantisation variance shows up as slower or degraded
// convergence exactly as in Figure 5. Task difficulty is controlled by
// the noise level and by how separated class templates are.
package data

import (
	"fmt"
	"math"

	"repro/rng"
	"repro/tensor"
)

// sqrtf is a float64 sqrt helper kept next to its single use.
func sqrtf(v float64) float64 { return math.Sqrt(v) }

// Dataset is an in-memory labelled dataset with one sample per row.
type Dataset struct {
	// Name identifies the dataset in logs and reports.
	Name string
	// X holds one flattened sample per row.
	X *tensor.Matrix
	// Labels holds the class of each row.
	Labels []int
	// Classes is the number of distinct labels.
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Gather copies the samples at the given indices into a fresh batch.
func (d *Dataset) Gather(indices []int) (*tensor.Matrix, []int) {
	return d.GatherInto(nil, nil, indices)
}

// GatherInto is Gather into storage the caller keeps from batch to
// batch: x and labels (either may be nil) are refilled when their
// capacity suffices and replaced by larger ones otherwise. It returns
// the batch, which the caller passes back in next time.
func (d *Dataset) GatherInto(x *tensor.Matrix, labels, indices []int) (*tensor.Matrix, []int) {
	n, cols := len(indices), d.X.Cols
	if x == nil || cap(x.Data) < n*cols {
		x = tensor.New(n, cols)
	} else {
		x.Rows, x.Cols, x.Data = n, cols, x.Data[:n*cols]
	}
	if cap(labels) < n {
		labels = make([]int, n)
	}
	labels = labels[:n]
	for i, idx := range indices {
		copy(x.Row(i), d.X.Row(idx))
		labels[i] = d.Labels[idx]
	}
	return x, labels
}

// Batches returns a shuffled partition of the dataset into minibatches
// of the given size for one epoch (the final short batch is kept).
func (d *Dataset) Batches(r *rng.RNG, batchSize int) [][]int {
	if batchSize <= 0 {
		panic("data: batch size must be positive")
	}
	perm := r.Perm(d.Len())
	var out [][]int
	for start := 0; start < len(perm); start += batchSize {
		end := start + batchSize
		if end > len(perm) {
			end = len(perm)
		}
		out = append(out, perm[start:end])
	}
	return out
}

// ImageConfig parameterises the synthetic image-classification task.
type ImageConfig struct {
	// Classes is the number of categories.
	Classes int
	// Channels, H, W give the image geometry (CHW layout per row).
	Channels, H, W int
	// TrainN and TestN are the split sizes.
	TrainN, TestN int
	// Noise is the pixel noise standard deviation added to each sample;
	// templates have unit scale, so noise ≈ 1 makes a genuinely hard
	// task where convergence speed differences are visible.
	Noise float32
	// Shift enables random ±1-pixel translations of the template so the
	// task rewards convolutional (translation-robust) features.
	Shift bool
	// Seed fixes the generator.
	Seed uint64
}

// MakeImages generates a train/test pair of structured image datasets.
// Each class owns a smooth random template; a sample is the class
// template, optionally shifted by up to one pixel, plus i.i.d. Gaussian
// pixel noise. Both splits draw from the same distribution with disjoint
// random streams.
func MakeImages(cfg ImageConfig) (train, test *Dataset) {
	if cfg.Classes < 2 || cfg.Channels <= 0 || cfg.H <= 0 || cfg.W <= 0 {
		panic(fmt.Sprintf("data: bad image config %+v", cfg))
	}
	r := rng.New(cfg.Seed)
	templates := makeTemplates(r.Fork(0), cfg)
	train = sampleImages(r.Fork(1), cfg, templates, cfg.TrainN, "images-train")
	test = sampleImages(r.Fork(2), cfg, templates, cfg.TestN, "images-test")
	return train, test
}

// makeTemplates builds one smooth unit-scale template per class by
// low-pass filtering white noise (box blur), which yields spatially
// coherent patterns that convolutions can exploit.
func makeTemplates(r *rng.RNG, cfg ImageConfig) []*tensor.Matrix {
	dim := cfg.Channels * cfg.H * cfg.W
	ts := make([]*tensor.Matrix, cfg.Classes)
	for c := range ts {
		raw := tensor.New(1, dim)
		raw.FillNorm(r, 1)
		sm := tensor.New(1, dim)
		for ch := 0; ch < cfg.Channels; ch++ {
			off := ch * cfg.H * cfg.W
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					var sum float32
					var cnt int
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							yy, xx := y+dy, x+dx
							if yy < 0 || yy >= cfg.H || xx < 0 || xx >= cfg.W {
								continue
							}
							sum += raw.Data[off+yy*cfg.W+xx]
							cnt++
						}
					}
					sm.Data[off+y*cfg.W+x] = sum / float32(cnt)
				}
			}
		}
		// Normalise to unit per-pixel RMS so Noise is a direct SNR knob.
		if norm := sm.Norm2(); norm > 0 {
			sm.Scale(float32(sqrtf(float64(len(sm.Data))) / norm))
		}
		ts[c] = sm
	}
	return ts
}

func sampleImages(r *rng.RNG, cfg ImageConfig, templates []*tensor.Matrix, n int, name string) *Dataset {
	dim := cfg.Channels * cfg.H * cfg.W
	d := &Dataset{
		Name:    name,
		X:       tensor.New(n, dim),
		Labels:  make([]int, n),
		Classes: cfg.Classes,
	}
	for i := 0; i < n; i++ {
		c := r.Intn(cfg.Classes)
		d.Labels[i] = c
		row := d.X.Row(i)
		var sx, sy int
		if cfg.Shift {
			sx, sy = r.Intn(3)-1, r.Intn(3)-1
		}
		tpl := templates[c].Data
		// The row's noise first, in pixel order, then the template
		// under it: each pixel is v + noise, as drawn pixel by pixel.
		tensor.FillNorm(row, r, cfg.Noise)
		for ch := 0; ch < cfg.Channels; ch++ {
			off := ch * cfg.H * cfg.W
			for y := 0; y < cfg.H; y++ {
				for x := 0; x < cfg.W; x++ {
					yy, xx := y+sy, x+sx
					var v float32
					if yy >= 0 && yy < cfg.H && xx >= 0 && xx < cfg.W {
						v = tpl[off+yy*cfg.W+xx]
					}
					row[off+y*cfg.W+x] = v + row[off+y*cfg.W+x]
				}
			}
		}
	}
	return d
}

// SequenceConfig parameterises the synthetic speech-like task.
type SequenceConfig struct {
	// Classes is the number of categories.
	Classes int
	// Frames and Features give the sequence geometry: each sample is
	// Frames consecutive feature vectors (row length Frames·Features).
	Frames, Features int
	// TrainN and TestN are the split sizes.
	TrainN, TestN int
	// Noise is the per-feature noise standard deviation.
	Noise float32
	// Seed fixes the generator.
	Seed uint64
}

// MakeSequences generates a train/test pair of sequence datasets. Each
// class owns a temporal profile (a distinct trajectory through feature
// space); samples follow the profile with additive noise and a random
// per-sample gain, mimicking utterances of the same word by different
// speakers. Discriminating classes requires integrating over time —
// which is what makes it an LSTM workload.
func MakeSequences(cfg SequenceConfig) (train, test *Dataset) {
	if cfg.Classes < 2 || cfg.Frames <= 0 || cfg.Features <= 0 {
		panic(fmt.Sprintf("data: bad sequence config %+v", cfg))
	}
	r := rng.New(cfg.Seed)
	profiles := make([][]float32, cfg.Classes)
	pr := r.Fork(0)
	for c := range profiles {
		p := make([]float32, cfg.Frames*cfg.Features)
		// Smooth random walk through feature space.
		cur := make([]float32, cfg.Features)
		for j := range cur {
			cur[j] = pr.Norm(1)
		}
		for t := 0; t < cfg.Frames; t++ {
			for j := 0; j < cfg.Features; j++ {
				// Products rounded before the add: no FMA on arm64, so
				// every architecture generates the same data.
				cur[j] = float32(0.8*cur[j]) + float32(0.2*pr.Norm(1))
				p[t*cfg.Features+j] = cur[j]
			}
		}
		profiles[c] = p
	}
	gen := func(rr *rng.RNG, n int, name string) *Dataset {
		d := &Dataset{
			Name:    name,
			X:       tensor.New(n, cfg.Frames*cfg.Features),
			Labels:  make([]int, n),
			Classes: cfg.Classes,
		}
		for i := 0; i < n; i++ {
			c := rr.Intn(cfg.Classes)
			d.Labels[i] = c
			gain := 1 + rr.Norm(0.1)
			row := d.X.Row(i)
			tensor.FillNorm(row, rr, cfg.Noise)
			for j, v := range profiles[c] {
				row[j] = float32(gain*v) + row[j]
			}
		}
		return d
	}
	return gen(r.Fork(1), cfg.TrainN, "sequences-train"), gen(r.Fork(2), cfg.TestN, "sequences-test")
}
