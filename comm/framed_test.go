package comm

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/quant"
	"repro/rng"
)

// TestFramedWireNeedsNoSharedConfig: a sender picks a codec at runtime,
// encodes with EncodeTo and ships the frame over a real TCP link; the
// receiver decodes with quant.DecodeAny alone — it never learns which
// codec, bucket size or shape the sender chose. This is the
// self-describing wire contract the framed format exists for.
func TestFramedWireNeedsNoSharedConfig(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if !f.Framed() {
		t.Fatal("TCP fabric must demand framed payloads")
	}

	shape := quant.Shape{Rows: 24, Cols: 32}
	n := shape.Len()
	r := rng.New(11)
	src := make([]float32, n)
	for i := range src {
		src[i] = r.Norm(1)
	}

	// The sender's codec choice is a runtime string; the receiver side
	// below never sees it.
	for _, name := range []string{"32bit", "1bit", "1bit*64", "qsgd4b512", "qsgd8", "topk0.25"} {
		codec, err := quant.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		enc := codec.NewEncoder(n, shape, 3)
		var frame bytes.Buffer
		if _, err := enc.EncodeTo(&frame, src); err != nil {
			t.Fatalf("%s: EncodeTo: %v", name, err)
		}
		mustSend(t, f, 0, 1, frame.Bytes())

		// Receiver: raw bytes in, values out. No codec, no shape, no n.
		wire, err := f.Rank(1).Recv(0, 1)
		if err != nil {
			t.Fatalf("%s: recv: %v", name, err)
		}
		got, err := quant.DecodeAny(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("%s: DecodeAny on received frame: %v", name, err)
		}
		if len(got) != n {
			t.Fatalf("%s: decoded %d values, want %d", name, len(got), n)
		}
		// The decoded values must match a reference decode with a fresh
		// encoder in the same state.
		ref := codec.NewEncoder(n, shape, 3)
		want := make([]float32, n)
		if err := codec.Decode(ref.Encode(src), n, shape, want); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: element %d: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestFramedReceiveRejectsOtherCodec: two ranks configured apart — a
// 200×1 tensor under qsgd4b512 on one, qsgd4b256 on the other, whose
// messages are the same size — do not decode each other's payloads:
// under either primitive a receiver's header check (quant.MatchHeader)
// fails the exchange, naming both codecs, and the other rank returns at
// once instead of waiting on it.
func TestFramedReceiveRejectsOtherCodec(t *testing.T) {
	shape := quant.Shape{Rows: 200, Cols: 1}
	codecs := []quant.Codec{quant.MustParse("qsgd4b512"), quant.MustParse("qsgd4b256")}
	if a, b := codecs[0].EncodedBytes(200, shape), codecs[1].EncodedBytes(200, shape); a != b {
		t.Fatalf("payloads of %d and %d bytes: the size check alone would tell the codecs apart", a, b)
	}
	for _, prim := range []Primitive{MPI, NCCL} {
		t.Run(prim.String(), func(t *testing.T) {
			f, err := NewTCPFabric(2)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ranks := make([]*Collective, 2)
			for r, c := range codecs {
				ranks[r] = NewCollective(f, prim, []TensorSpec{{Name: "w", N: 200, Wire: shape, Codec: c}}, 1, []int{r})
			}
			inputs := randInputs(rng.New(41), 2, []int{200})
			_, err = exchangeRanks(f, func(r int, gs [][]float32) error { return ranks[r].ReduceAll(r, gs) }, inputs)
			if err == nil || !strings.Contains(err.Error(), "frame of qsgd4b") ||
				!strings.Contains(err.Error(), "qsgd4b512") || !strings.Contains(err.Error(), "qsgd4b256") {
				t.Fatalf("exchange error %v, want a header mismatch naming qsgd4b512 and qsgd4b256", err)
			}
		})
	}
}

// TestFramedReduceBroadcastMatchesHeaderless: the framed TCP aggregation
// must produce bit-identical gradients to the headerless channel
// aggregation, while moving exactly the predicted number of bytes
// (payload plus one header per message).
func TestFramedReduceBroadcastMatchesHeaderless(t *testing.T) {
	r := rng.New(21)
	const k, n = 3, 1536
	inputs := randInputs(r, k, []int{n})
	specs := []TensorSpec{
		{Name: "w", N: n, Wire: quant.Shape{Rows: 32, Cols: 48}, Codec: quant.NewOneBitReshaped(64)},
	}

	tcp, err := NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	rbTCP := NewReduceBroadcast(tcp, specs, 4)
	overTCP := runExchange(t, rbTCP, inputs)
	overChan := runExchange(t, NewReduceBroadcast(NewFabric(k), specs, 4), inputs)
	for w := 0; w < k; w++ {
		for i := range overTCP[w][0] {
			if overTCP[w][0][i] != overChan[w][0][i] {
				t.Fatalf("worker %d element %d: framed %v vs headerless %v",
					w, i, overTCP[w][0][i], overChan[w][0][i])
			}
		}
	}
	if got, want := tcp.TotalBytes(), rbTCP.WireBytesPerExchange(); got != want {
		t.Fatalf("framed exchange moved %d bytes, predicted %d", got, want)
	}
	// The prediction itself must be the headerless volume plus one
	// header per message: K·(K−1) gathers and K·(K−1) broadcasts.
	headerless := NewReduceBroadcast(NewFabric(k), specs, 4).WireBytesPerExchange()
	msgs := int64(2 * k * (k - 1))
	overhead := int64(quant.FrameOverhead(specs[0].Codec.Name()))
	if got := rbTCP.WireBytesPerExchange(); got != headerless+msgs*overhead {
		t.Fatalf("framed prediction %d, want %d + %d·%d", got, headerless, msgs, overhead)
	}
}

// TestFramedMixedPolicyExchangeSelfDescribes: one reduce-broadcast
// exchange under a per-tensor policy plan interleaves frames naming
// three different codecs on the same TCP links; every message
// self-describes, the decoded values match the headerless in-process
// exchange exactly, and the byte counter matches the prediction with
// each tensor priced under its own codec's frame header.
func TestFramedMixedPolicyExchangeSelfDescribes(t *testing.T) {
	const k = 3
	tensors := []quant.TensorInfo{
		{Name: "embedding.W", Shape: quant.Shape{Rows: 32, Cols: 48}},
		{Name: "dense0.W", Shape: quant.Shape{Rows: 32, Cols: 24}},
		{Name: "dense0.b", Shape: quant.Shape{Rows: 130, Cols: 1}},
	}
	plan := quant.NewPlan(
		quant.MustParsePolicy("qsgd4b512;minfrac=1;embedding=topk0.25;*.b=32bit"), tensors)
	specs := make([]TensorSpec, len(tensors))
	sizes := make([]int, len(tensors))
	for i, ti := range tensors {
		specs[i] = TensorSpec{Name: ti.Name, N: ti.Shape.Len(), Wire: ti.Shape,
			Codec: plan.CodecFor(i)}
		sizes[i] = ti.Shape.Len()
	}
	wantCodecs := []string{"topk0.25", "qsgd4b512", "32bit"}
	for i, want := range wantCodecs {
		if got := specs[i].Codec.Name(); got != want {
			t.Fatalf("tensor %s assigned %s, want %s", specs[i].Name, got, want)
		}
	}

	r := rng.New(33)
	inputs := randInputs(r, k, sizes)
	tcp, err := NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	rbTCP := NewReduceBroadcast(tcp, specs, 9)
	overTCP := runExchange(t, rbTCP, inputs)
	overChan := runExchange(t, NewReduceBroadcast(NewFabric(k), specs, 9), inputs)
	for w := 0; w < k; w++ {
		for ti := range specs {
			for i := range overTCP[w][ti] {
				if overTCP[w][ti][i] != overChan[w][ti][i] {
					t.Fatalf("worker %d tensor %s element %d: framed %v vs headerless %v",
						w, specs[ti].Name, i, overTCP[w][ti][i], overChan[w][ti][i])
				}
			}
		}
	}
	if got, want := tcp.TotalBytes(), ReduceBroadcastWireBytes(specs, k, true); got != want {
		t.Fatalf("mixed exchange moved %d bytes, predicted %d", got, want)
	}
}

// TestTCPLargeMessagesDontDeadlock: every peer writes before reading in
// the aggregation patterns, so a chunk bigger than the kernel's socket
// buffers used to deadlock the fabric when Send was a blocking write.
// The per-link writer goroutines must absorb it.
func TestTCPLargeMessagesDontDeadlock(t *testing.T) {
	const k, n = 2, 4 << 20 // 16 MB per peer vector, 8 MB per ring chunk
	tcp, err := NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	ring := NewRing(tcp)
	vecs := make([][]float32, k)
	done := make(chan error, k)
	for w := 0; w < k; w++ {
		vecs[w] = make([]float32, n)
		for i := range vecs[w] {
			vecs[w][i] = float32(w + 1)
		}
		go func(w int) { done <- ring.Reduce(w, 0, vecs[w]) }(w)
	}
	deadline := time.After(30 * time.Second)
	for i := 0; i < k; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("ring over TCP deadlocked on large chunks")
		}
	}
	if got := vecs[0][n/2]; got != 3 {
		t.Fatalf("sum = %v, want 3", got)
	}
}

// TestFramedRingOverTCP: the fp32 ring over a framed transport still
// sums exactly and stays bit-identical across peers.
func TestFramedRingOverTCP(t *testing.T) {
	r := rng.New(31)
	const k, n = 3, 700
	inputs := randInputs(r, k, []int{n})
	tcp, err := NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	ring := NewRing(tcp)
	out := runExchange(t, ring, inputs)
	sums := exactSums(inputs)
	if got, want := tcp.TotalBytes(), RingWireBytes(n, k, true); got != want {
		t.Fatalf("framed ring moved %d bytes, predicted %d", got, want)
	}
	for i := range sums[0] {
		if math.Abs(float64(out[0][0][i])-sums[0][i]) > 1e-4 {
			t.Fatalf("element %d: %v vs %v", i, out[0][0][i], sums[0][i])
		}
	}
	for w := 1; w < k; w++ {
		for i := range out[0][0] {
			if out[w][0][i] != out[0][0][i] {
				t.Fatalf("worker %d diverges at %d", w, i)
			}
		}
	}
}
