package main

import (
	"fmt"
)

// transportKind and primitiveKind name the two axes the comm layer is
// exercised along; the adapters map them onto lpsgd/comm constants so
// this file stays free of program imports and can be read as the frozen
// specification of the benchmark.
type transportKind string

const (
	chanFabric transportKind = "chan"
	tcpFabric  transportKind = "tcp"
)

type primitiveKind string

const (
	reduceBroadcast primitiveKind = "rb"
	ring            primitiveKind = "ring"
)

// dataKind selects the synthetic generator.
type dataKind int

const (
	imageData dataKind = iota
	sequenceData
)

// dataSpec is the frozen input recipe of a workload. TrainN is always a
// multiple of the batch so every window is exactly TrainN/batch steps.
type dataSpec struct {
	kind             dataKind
	classes          int
	channels, h, w   int // images
	frames, features int // sequences
	trainN, testN    int
	noise            float32
	shift            bool
}

// matmulShape is the (m×k)·(k×n) product a workload declares as its
// largest-FLOP matmul; tensor.matmul_gflops is measured at this shape.
type matmulShape struct{ m, k, n int }

// workload is one frozen benchmark configuration. A run executes
// fixed-size training jobs (windows × window steps, each from scratch)
// back to back: the step count — and with it accuracy, steps-to-target
// and the loss digest — is then exact per seed and independent of how
// fast the machine is, and the loss never has time to collapse into the
// denormal range (see README, traps).
type workload struct {
	name string
	why  string

	model     modelKind
	data      dataSpec
	policy    string
	transport transportKind
	primitive primitiveKind
	workers   int
	batch     int // global minibatch
	lr        float32

	// windows is the job length in epochs; warm of them are discarded
	// from every timing (cold replicas, first-touch page faults, TCP
	// slow start) and counted as set-up instead.
	windows, warm int
	// subSeeds is how many differently seeded jobs a run cycles through.
	// Steps-to-target of a single seed varies with the random
	// initialisation and data alone by ~15 % (cnn, mlp) to ~35 % (lstm)
	// — see README, traps — so a run reports the median over subSeeds
	// derived seeds: still an exact function of -seed, and steady enough
	// to carry a regression bound. Sized so that spread stays under ~8 %.
	subSeeds int
	// target is the test accuracy time_to_target_s measures against.
	target float64

	matmul matmulShape
}

// windowSteps is W, the number of synchronous steps in one window.
func (w *workload) windowSteps() int { return w.data.trainN / w.batch }

// jobSteps is the fixed number of steps one job performs.
func (w *workload) jobSteps() int { return w.windows * w.windowSteps() }

// workloads is the frozen set. Sizes were tuned on a 2-core box so the
// subSeeds jobs of a run take 15–25 s together; learning rates are low
// on purpose, so that the target is crossed mid-job and the loss never
// nears the denormal range. The achieved phase shares quoted in each
// why are from the traced run on that box (obs.phase_permille.*).
var workloads = []*workload{
	{
		name:  "cnn_fp32_chan",
		why:   "Compute-bound: conv-BN-pool x2 CNN, 32bit, chan fabric, MPI, K=2, batch 64; compute is 925 permille of the step. Matmul/im2col/BN work shows here; comm or quant work must show no change.",
		model: cnnModel,
		data: dataSpec{kind: imageData, classes: 10, channels: 3, h: 12, w: 12,
			trainN: 512, testN: 512, noise: 1.5, shift: true},
		policy: "32bit", transport: chanFabric, primitive: reduceBroadcast,
		workers: 2, batch: 64, lr: 0.003,
		windows: 28, warm: 3, subSeeds: 5, target: 0.80,
		matmul: matmulShape{16, 72, 36},
	},
	{
		name:  "mlp_fp32_tcp",
		why:   "Transfer-bound: MLP 64-1024-512-10 (2.4 MB of gradients), 32bit, loopback TCP, MPI, K=2, batch 8; barrier 543 permille, transfer its largest part. Buffer ownership, zero-copy and overlap show here.",
		model: mlpModel,
		data: dataSpec{kind: imageData, classes: 10, channels: 1, h: 8, w: 8,
			trainN: 128, testN: 384, noise: 0.8},
		policy: "32bit", transport: tcpFabric, primitive: reduceBroadcast,
		workers: 2, batch: 8, lr: 0.0001,
		windows: 8, warm: 2, subSeeds: 3, target: 0.80,
		matmul: matmulShape{4, 1024, 512},
	},
	{
		name:  "mlp_qsgd4_tcp",
		why:   "Quantise-bound twin of mlp_fp32_tcp under qsgd4b512: 7.7x fewer wire bytes yet a 3x slower step, quantise+decode 787 permille of it. QSGD kernel work shows here only (the paper's Fig. 16 question).",
		model: mlpModel,
		data: dataSpec{kind: imageData, classes: 10, channels: 1, h: 8, w: 8,
			trainN: 128, testN: 384, noise: 0.8},
		policy: "qsgd4b512", transport: tcpFabric, primitive: reduceBroadcast,
		workers: 2, batch: 8, lr: 0.0001,
		windows: 8, warm: 2, subSeeds: 3, target: 0.80,
		matmul: matmulShape{4, 1024, 512},
	},
	{
		name:  "lstm_fp32_ring",
		why:   "Latency/engine-bound: 12x8 LSTM(32)+dense, 32bit, chan fabric, NCCL ring, K=4 on fewer cores, batch 16; 1.9 ms step, compute 368 permille. Ring hops, goroutine spawn, allocation and GC dominate.",
		model: lstmModel,
		data: dataSpec{kind: sequenceData, classes: 6, frames: 12, features: 8,
			trainN: 512, testN: 256, noise: 0.7},
		policy: "32bit", transport: chanFabric, primitive: ring,
		workers: 4, batch: 16, lr: 0.003,
		windows: 8, warm: 2, subSeeds: 25, target: 0.70,
		matmul: matmulShape{4, 32, 128},
	},
}

// lossFloor is the guard against the denormal trap: a window whose mean
// training loss falls below it is flagged.
const lossFloor = 1e-3

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
