package data

import (
	"math"
	"slices"
	"testing"

	"repro/rng"
)

func TestMakeImagesShapes(t *testing.T) {
	cfg := ImageConfig{Classes: 4, Channels: 3, H: 8, W: 8, TrainN: 100, TestN: 40, Noise: 0.5, Seed: 1}
	train, test := MakeImages(cfg)
	if train.Len() != 100 || test.Len() != 40 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if train.X.Cols != 3*8*8 {
		t.Fatalf("sample dim %d", train.X.Cols)
	}
	if train.Classes != 4 {
		t.Fatalf("classes %d", train.Classes)
	}
}

func TestMakeImagesDeterministic(t *testing.T) {
	cfg := ImageConfig{Classes: 3, Channels: 1, H: 6, W: 6, TrainN: 50, TestN: 10, Noise: 0.3, Seed: 7}
	a, _ := MakeImages(cfg)
	b, _ := MakeImages(cfg)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed produced different data")
		}
	}
	cfg.Seed = 8
	c, _ := MakeImages(cfg)
	same := true
	for i := range a.X.Data {
		if a.X.Data[i] != c.X.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestImagesAllClassesPresent(t *testing.T) {
	cfg := ImageConfig{Classes: 5, Channels: 1, H: 4, W: 4, TrainN: 500, TestN: 10, Noise: 0.5, Seed: 2}
	train, _ := MakeImages(cfg)
	seen := make([]bool, cfg.Classes)
	for _, l := range train.Labels {
		if l < 0 || l >= cfg.Classes {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("class %d absent in 500 samples", c)
		}
	}
}

func TestImagesClassSignalExists(t *testing.T) {
	// Same-class samples must be more correlated than cross-class ones;
	// otherwise the task is unlearnable and the accuracy experiments
	// would measure nothing.
	cfg := ImageConfig{Classes: 2, Channels: 1, H: 8, W: 8, TrainN: 400, TestN: 10, Noise: 0.5, Seed: 3}
	train, _ := MakeImages(cfg)
	var mean [2][]float64
	var count [2]int
	dim := train.X.Cols
	for c := 0; c < 2; c++ {
		mean[c] = make([]float64, dim)
	}
	for i := 0; i < train.Len(); i++ {
		c := train.Labels[i]
		count[c]++
		for j, v := range train.X.Row(i) {
			mean[c][j] += float64(v)
		}
	}
	var dist float64
	for j := 0; j < dim; j++ {
		d := mean[0][j]/float64(count[0]) - mean[1][j]/float64(count[1])
		dist += d * d
	}
	if math.Sqrt(dist) < 0.5 {
		t.Fatalf("class means indistinguishable: distance %v", math.Sqrt(dist))
	}
}

func TestMakeSequencesShapes(t *testing.T) {
	cfg := SequenceConfig{Classes: 3, Frames: 10, Features: 4, TrainN: 60, TestN: 20, Noise: 0.4, Seed: 1}
	train, test := MakeSequences(cfg)
	if train.Len() != 60 || test.Len() != 20 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	if train.X.Cols != 40 {
		t.Fatalf("sample dim %d", train.X.Cols)
	}
}

func TestMakeSequencesDeterministic(t *testing.T) {
	cfg := SequenceConfig{Classes: 2, Frames: 5, Features: 3, TrainN: 30, TestN: 10, Noise: 0.2, Seed: 9}
	a, _ := MakeSequences(cfg)
	b, _ := MakeSequences(cfg)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestGather(t *testing.T) {
	cfg := ImageConfig{Classes: 2, Channels: 1, H: 2, W: 2, TrainN: 10, TestN: 2, Noise: 0.1, Seed: 4}
	train, _ := MakeImages(cfg)
	x, labels := train.Gather([]int{3, 7, 1})
	if x.Rows != 3 || len(labels) != 3 {
		t.Fatalf("gather shape %d/%d", x.Rows, len(labels))
	}
	for j := 0; j < x.Cols; j++ {
		if x.At(0, j) != train.X.At(3, j) {
			t.Fatal("gather copied wrong row")
		}
	}
	if labels[1] != train.Labels[7] {
		t.Fatal("gather copied wrong label")
	}
}

// TestGatherInto: refilled storage holds exactly what a fresh Gather
// returns, a batch that fits reuses it without allocating, and a larger
// one grows it.
func TestGatherInto(t *testing.T) {
	cfg := ImageConfig{Classes: 3, Channels: 1, H: 3, W: 3, TrainN: 20, TestN: 2, Noise: 0.1, Seed: 5}
	train, _ := MakeImages(cfg)
	x, labels := train.GatherInto(nil, nil, []int{4, 9, 2, 17})
	for _, idx := range [][]int{{8, 1}, {0, 19, 5, 6}, {}, {11, 12, 13, 14, 15}} {
		grown := cap(x.Data) < len(idx)*x.Cols
		prev := &x.Data[:1][0]
		x, labels = train.GatherInto(x, labels, idx)
		wantX, wantLabels := train.Gather(idx)
		if x.Rows != wantX.Rows || x.Cols != wantX.Cols || !slices.Equal(x.Data, wantX.Data) || !slices.Equal(labels, wantLabels) {
			t.Fatalf("GatherInto(%v) differs from Gather", idx)
		}
		if !grown && &x.Data[:1][0] != prev {
			t.Fatalf("GatherInto(%v) replaced storage that fits", idx)
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { x, labels = train.GatherInto(x, labels, []int{3, 1, 4}) }); allocs != 0 {
		t.Errorf("GatherInto into fitting storage allocates %v times", allocs)
	}
}

func TestBatchesPartitionEpoch(t *testing.T) {
	cfg := ImageConfig{Classes: 2, Channels: 1, H: 2, W: 2, TrainN: 103, TestN: 2, Noise: 0.1, Seed: 5}
	train, _ := MakeImages(cfg)
	r := rng.New(1)
	batches := train.Batches(r, 32)
	if len(batches) != 4 {
		t.Fatalf("batch count %d, want 4", len(batches))
	}
	if len(batches[3]) != 103-96 {
		t.Fatalf("tail batch size %d", len(batches[3]))
	}
	seen := map[int]bool{}
	for _, b := range batches {
		for _, idx := range b {
			if seen[idx] {
				t.Fatalf("index %d appears twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 103 {
		t.Fatalf("epoch covered %d samples", len(seen))
	}
}

func TestBatchesShuffleVaries(t *testing.T) {
	cfg := ImageConfig{Classes: 2, Channels: 1, H: 2, W: 2, TrainN: 64, TestN: 2, Noise: 0.1, Seed: 6}
	train, _ := MakeImages(cfg)
	r := rng.New(2)
	b1 := train.Batches(r, 64)[0]
	b2 := train.Batches(r, 64)[0]
	same := true
	for i := range b1 {
		if b1[i] != b2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("consecutive epochs had identical order")
	}
}

func TestBadConfigsPanic(t *testing.T) {
	cases := []func(){
		func() { MakeImages(ImageConfig{Classes: 1, Channels: 1, H: 2, W: 2}) },
		func() { MakeSequences(SequenceConfig{Classes: 1, Frames: 2, Features: 2}) },
		func() {
			cfg := ImageConfig{Classes: 2, Channels: 1, H: 2, W: 2, TrainN: 4, TestN: 2, Seed: 1}
			tr, _ := MakeImages(cfg)
			tr.Batches(rng.New(1), 0)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
