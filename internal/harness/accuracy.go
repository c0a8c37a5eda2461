package harness

import (
	"fmt"

	"repro/comm"
	"repro/data"
	"repro/internal/report"
	"repro/nn"
	"repro/parallel"
	"repro/quant"
	"repro/rng"
	"repro/tensor"
)

// AccuracyOptions scales the Figure 5 reproduction. The paper trains
// ImageNet-class models for days; this reproduction trains scaled-down
// models on synthetic tasks whose gradient signal-to-noise ratio is low
// enough that quantisation variance shows up the same way (see
// the reproduction's substitution choices). Scale 1 is the quick configuration
// used by tests and benchmarks; larger scales sharpen the curves.
type AccuracyOptions struct {
	// Workers is the simulated GPU count (the paper's accuracy runs use
	// multi-GPU MPI).
	Workers int
	// Epochs per run.
	Epochs int
	// TrainN / TestN are the synthetic dataset sizes.
	TrainN, TestN int
	// BatchSize is the global minibatch.
	BatchSize int
	// Seed fixes everything.
	Seed uint64
	// Codecs are the precision variants to compare; nil selects the
	// Figure 5 ladder.
	Codecs []LabelledCodec
}

// LabelledCodec pairs a codec with its Figure 5 legend label.
type LabelledCodec struct {
	Label string
	Codec quant.Codec
}

// Fig5Codecs is the legend of Figure 5(a)/(d): full precision, classic
// and reshaped 1bitSGD, and QSGD at 2/4/8 bits with the paper's tuned
// buckets.
func Fig5Codecs() []LabelledCodec {
	return []LabelledCodec{
		{"32bit", quant.FP32{}},
		{"1bitSGD", quant.OneBit{}},
		{"1bitSGD* (d=64)", quant.NewOneBitReshaped(64)},
		{"1bitSGD* (d=512)", quant.NewOneBitReshaped(512)},
		{"QSGD 2bit", quant.NewQSGD(2, 128, quant.MaxNorm)},
		{"QSGD 4bit", quant.NewQSGD(4, 512, quant.MaxNorm)},
		{"QSGD 8bit", quant.NewQSGD(8, 512, quant.MaxNorm)},
	}
}

// ExtensionCodecs is the ladder of variants beyond the paper's main
// figures: alternative QSGD normalisation and level schemes (§3.2.2)
// and the sparse top-k scheme of the related-work discussion. Running
// the accuracy study over these answers the questions the paper raises
// but leaves open.
func ExtensionCodecs() []LabelledCodec {
	return []LabelledCodec{
		{"32bit", quant.FP32{}},
		{"QSGD 4bit l2", quant.NewQSGD(4, 512, quant.TwoNorm)},
		{"QSGD 4bit uniform", quant.NewQSGDScheme(4, 512, quant.MaxNorm, quant.Uniform)},
		{"QSGD 4bit exp", quant.NewQSGDScheme(4, 512, quant.MaxNorm, quant.Exponential)},
		{"TopK 10%", quant.NewTopK(0.10)},
		{"TopK 1%", quant.NewTopK(0.01)},
	}
}

// defaults fills unset options with the quick configuration.
func (o *AccuracyOptions) defaults() {
	if o.Workers == 0 {
		o.Workers = 4
	}
	if o.Epochs == 0 {
		o.Epochs = 10
	}
	if o.TrainN == 0 {
		o.TrainN = 768
	}
	if o.TestN == 0 {
		o.TestN = 384
	}
	if o.BatchSize == 0 {
		o.BatchSize = 64
	}
	if o.Seed == 0 {
		o.Seed = 17
	}
	if o.Codecs == nil {
		o.Codecs = Fig5Codecs()
	}
}

// AccuracyResult is one Figure 5 curve.
type AccuracyResult struct {
	Label   string
	History *parallel.History
}

// AccuracyStudy is a full Figure 5 panel.
type AccuracyStudy struct {
	Task    string
	Results []AccuracyResult
}

// Find returns the curve with the given label, or nil.
func (s *AccuracyStudy) Find(label string) *AccuracyResult {
	for i := range s.Results {
		if s.Results[i].Label == label {
			return &s.Results[i]
		}
	}
	return nil
}

// Table renders the study: final and best accuracy plus wire volume per
// codec.
func (s *AccuracyStudy) Table() *report.Table {
	t := report.New(fmt.Sprintf("Figure 5 (%s): accuracy under low-precision gradients", s.Task),
		"codec", "final_acc_%", "best_acc_%", "wire_MB")
	for _, r := range s.Results {
		t.Addf("%s\t%.1f\t%.1f\t%.1f", r.Label,
			100*r.History.FinalAccuracy, 100*r.History.BestAccuracy,
			float64(r.History.TotalWireBytes)/1e6)
	}
	return t
}

// ConvergenceTable renders the paper's convergence-rate view: how many
// epochs each codec needs to reach the given absolute test accuracy
// ("-" when never reached within the run).
func (s *AccuracyStudy) ConvergenceTable(target float64) *report.Table {
	t := report.New(
		fmt.Sprintf("Figure 5 (%s): epochs to reach %.0f%% test accuracy", s.Task, 100*target),
		"codec", "epochs_to_target")
	for _, r := range s.Results {
		e := r.History.EpochsToReach(target)
		if e < 0 {
			t.Add(r.Label, "-")
		} else {
			t.Addf("%s\t%d", r.Label, e)
		}
	}
	return t
}

// CurvesTable renders accuracy-per-epoch curves (one row per epoch, one
// column per codec) — the raw series behind the Figure 5 plots.
func (s *AccuracyStudy) CurvesTable() *report.Table {
	header := []string{"epoch"}
	for _, r := range s.Results {
		header = append(header, r.Label)
	}
	t := report.New(fmt.Sprintf("Figure 5 (%s): test accuracy per epoch", s.Task), header...)
	if len(s.Results) == 0 {
		return t
	}
	epochs := len(s.Results[0].History.Epochs)
	for e := 0; e < epochs; e++ {
		row := []string{fmt.Sprintf("%d", e)}
		for _, r := range s.Results {
			acc := r.History.Epochs[e].TestAccuracy
			if acc < 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.1f", 100*acc))
			}
		}
		t.Add(row...)
	}
	return t
}

// LossTimeTable renders training loss against cumulative wall-clock
// time for each codec — the view of Figure 5(e), where the x-axis is
// seconds rather than epochs, so faster codecs shift their curves left.
func (s *AccuracyStudy) LossTimeTable() *report.Table {
	header := []string{"epoch"}
	for _, r := range s.Results {
		header = append(header, r.Label+"_t(s)", r.Label+"_loss")
	}
	t := report.New(fmt.Sprintf("Figure 5e view (%s): training loss vs time", s.Task), header...)
	if len(s.Results) == 0 {
		return t
	}
	epochs := len(s.Results[0].History.Epochs)
	elapsed := make([]float64, len(s.Results))
	for e := 0; e < epochs; e++ {
		row := []string{fmt.Sprintf("%d", e)}
		for ri, r := range s.Results {
			elapsed[ri] += r.History.Epochs[e].Elapsed.Seconds()
			row = append(row,
				fmt.Sprintf("%.2f", elapsed[ri]),
				fmt.Sprintf("%.4f", r.History.Epochs[e].TrainLoss))
		}
		t.Add(row...)
	}
	return t
}

// ImageModel is the scaled-down convolutional classifier used by the
// image-task accuracy runs (standing in for the paper's ImageNet/CIFAR
// models): conv-BN-ReLU-pool ×2 plus a dense head. Inputs are 3×12×12
// images flattened one per row.
func ImageModel(classes int) func(r *rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		c1 := nn.NewConv2D("conv1", tensor.ConvShape{
			InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)
		p1 := nn.NewMaxPool2D("pool1", 8, 12, 12, 2, 2, 2, 2)
		c2 := nn.NewConv2D("conv2", tensor.ConvShape{
			InC: 8, InH: 6, InW: 6, OutC: 16, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)
		p2 := nn.NewMaxPool2D("pool2", 16, 6, 6, 2, 2, 2, 2)
		return nn.MustNetwork(
			c1,
			nn.NewBatchNorm("bn1", 8, 12*12),
			nn.NewReLU("relu1"),
			p1,
			c2,
			nn.NewBatchNorm("bn2", 16, 6*6),
			nn.NewReLU("relu2"),
			p2,
			nn.NewDense("fc1", 16*3*3, 64, r),
			nn.NewReLU("relu3"),
			nn.NewDense("fc2", 64, classes, r),
		)
	}
}

// InceptionModel is a miniature BN-Inception stand-in built from two
// Concat modules with 1×1, 3×3 and avg-pool towers — the
// computation-dominated, parameter-light architecture of the study.
// Inputs are 3×12×12 images flattened one per row.
func InceptionModel(classes int) func(r *rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		// Stem: 3×3 conv to 8 channels.
		stem := nn.NewConv2D("stem", tensor.ConvShape{
			InC: 3, InH: 12, InW: 12, OutC: 8, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)
		// Module 1 on 8×12×12: towers yield 4 + 6 + 8 = 18 channels
		// (pool tower halves the spatial size, so it pools with stride 1
		// via padding-free 2×2 average over same-size output — instead
		// keep spatial size with 1×1 conv after 2x2/1 avg is awkward;
		// use stride-1 3×3-padded towers so shapes align).
		t1 := []nn.Layer{nn.NewConv2D("m1.t1", tensor.ConvShape{
			InC: 8, InH: 12, InW: 12, OutC: 4, KH: 1, KW: 1,
			StrideH: 1, StrideW: 1}, r)}
		t3 := []nn.Layer{nn.NewConv2D("m1.t3", tensor.ConvShape{
			InC: 8, InH: 12, InW: 12, OutC: 6, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)}
		module1 := nn.NewConcat("m1", t1, t3)
		c1 := 4 + 6
		pool1 := nn.NewMaxPool2D("pool1", c1, 12, 12, 2, 2, 2, 2)
		// Module 2 on c1×6×6.
		u1 := []nn.Layer{nn.NewConv2D("m2.t1", tensor.ConvShape{
			InC: c1, InH: 6, InW: 6, OutC: 8, KH: 1, KW: 1,
			StrideH: 1, StrideW: 1}, r)}
		u3 := []nn.Layer{nn.NewConv2D("m2.t3", tensor.ConvShape{
			InC: c1, InH: 6, InW: 6, OutC: 8, KH: 3, KW: 3,
			StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, r)}
		module2 := nn.NewConcat("m2", u1, u3)
		c2 := 8 + 8
		return nn.MustNetwork(
			stem,
			nn.NewBatchNorm("stem.bn", 8, 12*12),
			nn.NewReLU("stem.relu"),
			module1,
			nn.NewBatchNorm("m1.bn", c1, 12*12),
			nn.NewReLU("m1.relu"),
			pool1,
			module2,
			nn.NewBatchNorm("m2.bn", c2, 6*6),
			nn.NewReLU("m2.relu"),
			nn.NewGlobalAvgPool("gap", c2, 6, 6),
			nn.NewDense("fc", c2, classes, r),
		)
	}
}

// SequenceModel is the scaled-down AN4 stand-in: one LSTM plus a
// dense classifier.
func SequenceModel(frames, features, classes int) func(r *rng.RNG) *nn.Network {
	return func(r *rng.RNG) *nn.Network {
		return nn.MustNetwork(
			nn.NewLSTM("lstm1", frames, features, 32, r),
			nn.NewDense("fc", 32, classes, r),
		)
	}
}

// RunImageAccuracy reproduces Figure 5(a)–(d): the image-classification
// accuracy study across the precision ladder.
func RunImageAccuracy(opts AccuracyOptions) (*AccuracyStudy, error) {
	opts.defaults()
	const classes = 10
	train, test := data.MakeImages(data.ImageConfig{
		Classes: classes, Channels: 3, H: 12, W: 12,
		TrainN: opts.TrainN, TestN: opts.TestN,
		Noise: 2.0, Shift: true, Seed: opts.Seed,
	})
	return runStudy("image", ImageModel(classes), train, test, opts, 0.05)
}

// RunSequenceAccuracy reproduces Figure 5(e): the speech-like LSTM
// study, where even aggressive quantisation preserves accuracy.
func RunSequenceAccuracy(opts AccuracyOptions) (*AccuracyStudy, error) {
	opts.defaults()
	const frames, features, classes = 12, 8, 6
	train, test := data.MakeSequences(data.SequenceConfig{
		Classes: classes, Frames: frames, Features: features,
		TrainN: opts.TrainN, TestN: opts.TestN,
		Noise: 1.0, Seed: opts.Seed,
	})
	return runStudy("sequence", SequenceModel(frames, features, classes), train, test, opts, 0.05)
}

func runStudy(task string, build func(r *rng.RNG) *nn.Network,
	train, test *data.Dataset, opts AccuracyOptions, lr float32) (*AccuracyStudy, error) {
	study := &AccuracyStudy{Task: task}
	for _, lc := range opts.Codecs {
		tr, err := parallel.NewTrainer(build, parallel.Config{
			Workers:   opts.Workers,
			Policy:    &quant.Policy{Base: lc.Codec},
			Primitive: comm.MPI,
			BatchSize: opts.BatchSize,
			Epochs:    opts.Epochs,
			Schedule:  nn.ConstantLR(lr),
			Momentum:  0.9,
			Seed:      opts.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", task, lc.Label, err)
		}
		h, err := tr.Run(train, test)
		if err != nil {
			return nil, fmt.Errorf("harness: %s/%s: %w", task, lc.Label, err)
		}
		study.Results = append(study.Results, AccuracyResult{Label: lc.Label, History: h})
	}
	return study, nil
}
