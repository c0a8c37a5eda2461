package harness

import (
	"fmt"

	"repro/data"
	"repro/nn"
	"repro/rng"
)

// Task constructs one of the named synthetic training tasks — the
// model builder plus matching train/test sets — with the tuned
// dataset parameters the accuracy studies use. cmd/lpsgd-train and
// cmd/lpsgd-worker build their workloads through cmd/internal/worker,
// which calls this one helper: cluster replicas are only bit-identical
// if every rank constructs exactly the same dataset and model, so the
// construction literals must not fork.
func Task(name string, trainN, testN int, seed uint64) (func(r *rng.RNG) *nn.Network, *data.Dataset, *data.Dataset, error) {
	switch name {
	case "image":
		train, test := data.MakeImages(data.ImageConfig{
			Classes: 10, Channels: 3, H: 12, W: 12,
			TrainN: trainN, TestN: testN, Noise: 2.0, Shift: true, Seed: seed,
		})
		return ImageModel(10), train, test, nil
	case "sequence":
		train, test := data.MakeSequences(data.SequenceConfig{
			Classes: 6, Frames: 12, Features: 8,
			TrainN: trainN, TestN: testN, Noise: 1.0, Seed: seed,
		})
		return SequenceModel(12, 8, 6), train, test, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown task %q (want image or sequence)", name)
}
