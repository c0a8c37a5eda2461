package main

import (
	"repro/data"
	"repro/rng"
	"repro/tensor"
)

// Adapter for the data layer: the synthetic generators and the two
// Dataset calls a training step makes.

// dataSeed separates the dataset stream from the trainer's own seed so
// "-seed n" drives data, init and shuffle through distinct streams.
func dataSeed(seed uint64) uint64 { return seed*0x9E3779B97F4A7C15 + 0xDA7A }

// makeData generates a workload's train/test pair from the seed.
func makeData(w *workload, seed uint64) (train, test *data.Dataset) {
	d := w.data
	if d.kind == sequenceData {
		return data.MakeSequences(data.SequenceConfig{
			Classes: d.classes, Frames: d.frames, Features: d.features,
			TrainN: d.trainN, TestN: d.testN, Noise: d.noise, Seed: dataSeed(seed),
		})
	}
	return data.MakeImages(data.ImageConfig{
		Classes: d.classes, Channels: d.channels, H: d.h, W: d.w,
		TrainN: d.trainN, TestN: d.testN, Noise: d.noise, Shift: d.shift,
		Seed: dataSeed(seed),
	})
}

// epochBatches is one epoch's shuffled minibatch index lists.
func epochBatches(ds *data.Dataset, r *rng.RNG, batch int) [][]int {
	return ds.Batches(r, batch)
}

// gather copies one shard into a fresh batch.
func gather(ds *data.Dataset, shard []int) (*tensor.Matrix, []int) {
	return ds.Gather(shard)
}
