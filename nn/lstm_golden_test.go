package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"testing"

	"repro/rng"
	"repro/tensor"
)

var updateLSTMGolden = flag.Bool("update-lstm-golden", false,
	"rewrite testdata/lstm_golden.json from the arithmetic this build runs")

// hashFloats writes the bits of xs to h.
func hashFloats(h hash.Hash, xs []float32) {
	var b [4]byte
	for _, v := range xs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
}

// lstmDigest hashes five training steps of one LSTM layer of hidden
// size h on a batch of seeded inputs: each step's Forward output, the
// input gradient and parameter gradients of its Backward, then the
// parameters after the SGD step. The inputs are wide enough to drive
// the gates into saturation; the odd sizes leave tails for the vector
// kernels.
func lstmDigest(h, batch int) string {
	const steps, frames, features = 5, 3, 5
	r := rng.New(uint64(1000*h + batch))
	l := NewLSTM("lstm", frames, features, h, r)
	x := tensor.New(batch, frames*features)
	x.FillNorm(r, 3)
	dout := tensor.New(batch, h)
	opt := NewSGD(l.Params(), 0.1, 0.9)
	sum := sha256.New()
	for step := 0; step < steps; step++ {
		dout.FillNorm(r, 1)
		hashFloats(sum, l.Forward(x, true).Data)
		for _, p := range l.Params() {
			p.Grad.Zero()
		}
		hashFloats(sum, l.Backward(dout).Data)
		for _, p := range l.Params() {
			hashFloats(sum, p.Grad.Data)
		}
		opt.Step()
		for _, p := range l.Params() {
			hashFloats(sum, p.Value.Data)
		}
	}
	return hex.EncodeToString(sum.Sum(nil))
}

// activationDigest hashes the Forward and Backward outputs of an
// activation layer over a rows×cols input of wide seeded values with
// the special values the activations single out in its first row.
func activationDigest(layer Layer, rows, cols int) string {
	r := rng.New(uint64(100*rows + cols))
	x := tensor.New(rows, cols)
	x.FillNorm(r, 12)
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		0.625, -0.625, 40, -40, 104, -104, 105, -105, 20, -20, 1e-40, -1e-40}
	copy(x.Data, special)
	dout := tensor.New(rows, cols)
	dout.FillNorm(r, 1)
	sum := sha256.New()
	hashFloats(sum, layer.Forward(x, true).Data)
	hashFloats(sum, layer.Backward(dout).Data)
	return hex.EncodeToString(sum.Sum(nil))
}

// TestLSTMGolden pins the LSTM's arithmetic (the gate activations, the
// cell update, backpropagation through time and the SGD step) and the
// Sigmoid and Tanh layers to digests recorded before the activations
// moved onto the vector kernels. Before it, only the benchmark's loss
// digest covered LSTM arithmetic.
func TestLSTMGolden(t *testing.T) {
	got := map[string]string{}
	for _, h := range []int{1, 3, 5, 32, 33} {
		for _, batch := range []int{1, 4, 7} {
			got[fmt.Sprintf("lstm/h=%d/batch=%d", h, batch)] = lstmDigest(h, batch)
		}
	}
	for _, shape := range [][2]int{{1, 16}, {3, 7}, {5, 33}} {
		rows, cols := shape[0], shape[1]
		got[fmt.Sprintf("sigmoid/%dx%d", rows, cols)] = activationDigest(NewSigmoid("s"), rows, cols)
		got[fmt.Sprintf("tanh/%dx%d", rows, cols)] = activationDigest(NewTanh("t"), rows, cols)
	}

	const path = "testdata/lstm_golden.json"
	if *updateLSTMGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("computed %d cases, golden has %d", len(got), len(want))
	}
	for key, sum := range want {
		if got[key] != sum {
			t.Errorf("%s: digest %.16s…, golden %.16s…", key, got[key], sum)
		}
	}
}
