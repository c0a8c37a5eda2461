// External-style test: everything here goes through the public API —
// repro/lpsgd and repro/quant only, no internal/ imports — exactly the
// way a third-party consumer of the library would use it.
package lpsgd_test

import (
	"bytes"
	"net"
	"testing"

	"repro/lpsgd"
	"repro/quant"
)

// TestPublicAPITrainsOverTCP: the acceptance path end to end — a
// policy selected by name via WithPolicy, a trainer assembled purely from
// functional options, gradients moving over real TCP sockets as
// self-describing frames, and replicas staying in sync.
func TestPublicAPITrainsOverTCP(t *testing.T) {
	train, test := lpsgd.SyntheticImages(4, 256, 128, 42)
	trainer, err := lpsgd.NewTrainer(lpsgd.MLP(64, 32, 4),
		lpsgd.WithPolicy("qsgd4b512"),
		lpsgd.WithWorkers(2),
		lpsgd.WithTransport(lpsgd.TCP),
		lpsgd.WithBatchSize(64),
		lpsgd.WithEpochs(4),
		lpsgd.WithLearningRate(0.08),
		lpsgd.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	h, err := trainer.Run(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalAccuracy < 0.5 {
		t.Fatalf("public-API training reached only %.2f accuracy", h.FinalAccuracy)
	}
	if h.TotalWireBytes == 0 {
		t.Fatal("no bytes crossed the TCP fabric")
	}
	if !trainer.ReplicasInSync() {
		t.Fatal("replicas diverged")
	}
}

// TestPublicAPIOptionsValidate: bad codec names and transports surface
// as errors from NewTrainer, not panics at option time.
func TestPublicAPIOptionsValidate(t *testing.T) {
	if _, err := lpsgd.NewTrainer(lpsgd.MLP(64, 4), lpsgd.WithPolicy("qsgd3")); err == nil {
		t.Fatal("accepted an invalid codec name")
	}
	if _, err := lpsgd.NewTrainer(lpsgd.MLP(64, 4), lpsgd.WithTransport(lpsgd.Transport(99))); err == nil {
		t.Fatal("accepted an invalid transport")
	}
	if _, err := lpsgd.NewTrainer(nil); err == nil {
		t.Fatal("accepted a nil model builder")
	}
	// A zero minfrac would otherwise be silently replaced by the 0.99
	// default in the engine; the policy must be rejected instead.
	if _, err := lpsgd.NewTrainer(lpsgd.MLP(64, 4), lpsgd.WithPolicy("32bit;minfrac=0")); err == nil {
		t.Fatal("accepted a zero min quantised fraction")
	}
	if _, err := lpsgd.NewTrainer(lpsgd.MLP(64, 4), lpsgd.WithPolicy("topkNaN")); err == nil {
		t.Fatal("accepted a NaN topk density")
	}
	if _, err := lpsgd.NewTrainer(lpsgd.MLP(64, 4), lpsgd.WithPolicy("qsgd4b512;;")); err == nil {
		t.Fatal("accepted a malformed policy string")
	}
	if _, err := lpsgd.NewTrainer(lpsgd.MLP(64, 4), lpsgd.WithPolicy("qsgd4b512;minfrac=2")); err == nil {
		t.Fatal("accepted an out-of-range policy minfrac")
	}
}

// TestPolicyOptionsCompose: a later WithPolicy replaces an earlier one
// wholesale — no base, exemption target or rule of the first survives —
// and the trainer's effective policy round-trips its name.
func TestPolicyOptionsCompose(t *testing.T) {
	tr, err := lpsgd.NewTrainer(lpsgd.MLP(64, 32, 4),
		lpsgd.WithPolicy("qsgd4b512;minfrac=0.5;dense1=32bit"),
		lpsgd.WithPolicy("qsgd8b512;minfrac=1"),
		lpsgd.WithEpochs(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const want = "qsgd8b512;minfrac=1"
	if got := tr.Policy().Name(); got != want {
		t.Fatalf("composed policy %q, want %q", got, want)
	}
	if _, err := quant.ParsePolicy(tr.Policy().Name()); err != nil {
		t.Fatalf("effective policy does not round-trip: %v", err)
	}
}

// TestWithPolicyMixedPrecisionTrainsOverTCP: a per-layer policy drives
// real framed training — the dense1 rule sends the output layer raw,
// everything else as 4-bit QSGD — and the replicas stay bit-identical
// even though one exchange mixes codecs.
func TestWithPolicyMixedPrecisionTrainsOverTCP(t *testing.T) {
	train, test := lpsgd.SyntheticImages(4, 256, 128, 42)
	trainer, err := lpsgd.NewTrainer(lpsgd.MLP(64, 32, 4),
		lpsgd.WithPolicy("qsgd4b512;minfrac=1;dense1=32bit"),
		lpsgd.WithWorkers(2),
		lpsgd.WithTransport(lpsgd.TCP),
		lpsgd.WithBatchSize(64),
		lpsgd.WithEpochs(3),
		lpsgd.WithLearningRate(0.08),
		lpsgd.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	// The plan must reflect the rule: dense1.* raw, dense0.* quantised.
	plan := trainer.Plan()
	h, err := trainer.Run(train, test)
	if err != nil {
		t.Fatal(err)
	}
	if h.TotalWireBytes == 0 {
		t.Fatal("no bytes crossed the TCP fabric")
	}
	if !trainer.ReplicasInSync() {
		t.Fatal("replicas diverged under the mixed policy")
	}
	var sawRaw, sawQuantised bool
	for i := 0; i < plan.NumTensors(); i++ {
		switch plan.CodecFor(i).Name() {
		case "32bit":
			sawRaw = true
		case "qsgd4b512":
			sawQuantised = true
		}
	}
	if !sawRaw || !sawQuantised {
		t.Fatalf("plan is not mixed: raw=%v quantised=%v", sawRaw, sawQuantised)
	}
}

// TestFramedWireOverRawTCP: framed gradient bytes written by
// Encoder.EncodeTo cross a plain TCP connection and are decoded by
// quant.DecodeAny with no shared configuration — the receiver learns
// the codec from the frame header alone.
func TestFramedWireOverRawTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	shape := quant.Shape{Rows: 16, Cols: 16}
	n := shape.Len()
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%17) - 8
	}

	type result struct {
		vals []float32
		err  error
	}
	got := make(chan result, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- result{nil, err}
			return
		}
		defer conn.Close()
		// Two frames from two different runtime-chosen codecs arrive on
		// one stream; DecodeAny consumes exactly one frame per call.
		first, err := quant.DecodeAny(conn)
		if err != nil {
			got <- result{nil, err}
			return
		}
		second, err := quant.DecodeAny(conn)
		if err != nil {
			got <- result{nil, err}
			return
		}
		got <- result{append(first, second...), nil}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, name := range []string{"1bit*64", "qsgd8b512"} {
		codec, err := quant.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.NewEncoder(n, shape, 7).EncodeTo(conn, src); err != nil {
			t.Fatalf("%s: EncodeTo over TCP: %v", name, err)
		}
	}

	r := <-got
	if r.err != nil {
		t.Fatalf("receiver: %v", r.err)
	}
	if len(r.vals) != 2*n {
		t.Fatalf("receiver decoded %d values, want %d", len(r.vals), 2*n)
	}
	// Cross-check against local headerless round-trips.
	for fi, name := range []string{"1bit*64", "qsgd8b512"} {
		codec, _ := quant.Parse(name)
		var buf bytes.Buffer
		if _, err := codec.NewEncoder(n, shape, 7).EncodeTo(&buf, src); err != nil {
			t.Fatal(err)
		}
		want, err := quant.DecodeAny(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if r.vals[fi*n+i] != want[i] {
				t.Fatalf("%s element %d: %v vs %v", name, i, r.vals[fi*n+i], want[i])
			}
		}
	}
}
