package comm

import (
	"math"
	"testing"

	"repro/quant"
	"repro/rng"
)

func TestTCPFabricBasicSendRecv(t *testing.T) {
	f, err := NewTCPFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mustSend(t, f, 0, 1, []byte{1, 2, 3})
	mustSend(t, f, 0, 1, []byte{4})
	if got := mustRecv(t, f, 0, 1, 3); got[0] != 1 || got[2] != 3 {
		t.Fatalf("first message wrong: %v", got)
	}
	if got := mustRecv(t, f, 0, 1, 1); got[0] != 4 {
		t.Fatalf("second message wrong: %v", got)
	}
	if f.TotalBytes() != 4 || f.TotalMessages() != 2 {
		t.Fatalf("counters wrong: %d bytes, %d msgs", f.TotalBytes(), f.TotalMessages())
	}
}

func TestTCPFabricEmptyPayload(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mustSend(t, f, 0, 1, nil)
	mustRecv(t, f, 0, 1, 0)
	// The empty message was consumed whole: the next one is intact.
	mustSend(t, f, 0, 1, []byte{5})
	if got := mustRecv(t, f, 0, 1, 1); got[0] != 5 {
		t.Fatalf("message after the empty one arrived as %v", got)
	}
}

func TestTCPFabricLargeMessage(t *testing.T) {
	f, err := NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	done := make(chan []byte)
	go func() {
		buf := make([]byte, len(big))
		if err := f.RecvInto(1, 0, nil, buf); err != nil {
			t.Error(err)
		}
		done <- buf
	}()
	mustSend(t, f, 1, 0, big)
	got := <-done
	for i := 0; i < len(big); i += 4099 {
		if got[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestTCPFabricRejectsBadK(t *testing.T) {
	if _, err := NewTCPFabric(0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

// TestReduceBroadcastOverTCP: the full quantised aggregation pattern
// over real sockets produces the same result as over channels.
func TestReduceBroadcastOverTCP(t *testing.T) {
	r := rng.New(77)
	const k, n = 4, 2048
	inputs := randInputs(r, k, []int{n})
	specs := []TensorSpec{{Name: "g", N: n, Wire: quant.Shape{Rows: 64, Cols: 32},
		Codec: quant.NewQSGD(4, 512, quant.MaxNorm)}}

	tcp, err := NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	overTCP := runExchange(t, NewReduceBroadcast(tcp, specs, 9), inputs)
	overChan := runExchange(t, NewReduceBroadcast(NewFabric(k), specs, 9), inputs)
	for w := 0; w < k; w++ {
		for i := range overTCP[w][0] {
			if overTCP[w][0][i] != overChan[w][0][i] {
				t.Fatalf("worker %d element %d: tcp %v vs chan %v",
					w, i, overTCP[w][0][i], overChan[w][0][i])
			}
		}
	}
	if tcp.TotalBytes() != NewReduceBroadcast(tcp, specs, 9).WireBytesPerExchange() {
		t.Fatalf("tcp moved %d bytes, predicted %d",
			tcp.TotalBytes(), NewReduceBroadcast(tcp, specs, 9).WireBytesPerExchange())
	}
}

// TestRingOverTCP: the NCCL-style ring runs over sockets too.
func TestRingOverTCP(t *testing.T) {
	r := rng.New(78)
	const k, n = 3, 999
	inputs := randInputs(r, k, []int{n})
	tcp, err := NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	out := runExchange(t, NewRing(tcp), inputs)
	sums := exactSums(inputs)
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
