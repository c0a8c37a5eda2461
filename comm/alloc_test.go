package comm

import (
	"strings"
	"testing"

	"repro/quant"
)

// exchangeAllocs warms a reducer up on the MLP inventory — whose message
// sizes cycle from 2 MB down to 40 bytes on every link, the case a
// free list that hands out buffers in FIFO order never recovers from —
// and returns the allocations per steady-state exchange. The exchanges
// run on persistent goroutines, so the figure is the exchange's alone.
func exchangeAllocs(t *testing.T, red Reducer, k int) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; zero is asserted without -race")
	}
	d := newExchangeDriver(red, k, mlpInventory)
	defer d.stop()
	exchange := func() {
		if err := d.run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		exchange() // slabs, receive buffers and frame decoders reach steady state
	}
	return testing.AllocsPerRun(10, exchange)
}

// policySpecs is the MLP inventory under a codec, or under two joined
// by "+": the first for the matrices, the second for the biases.
func policySpecs(codec string) []TensorSpec {
	matrices, biases, _ := strings.Cut(codec, "+")
	specs := mlpSpecs(quant.MustParse(matrices))
	for i := 1; biases != "" && i < len(specs); i += 2 {
		specs[i].Codec = quant.MustParse(biases)
	}
	return specs
}

// TestReduceBroadcastExchangeAllocs: in steady state a
// reduce-and-broadcast exchange allocates nothing — not per message,
// not per tensor — for every codec family on every fabric, nor when a
// policy alternates codecs from one tensor to the next (the framed
// receive path must not re-parse a codec name per switch).
func TestReduceBroadcastExchangeAllocs(t *testing.T) {
	const k = 2
	for _, codec := range []string{"32bit", "qsgd4b512", "1bit", "qsgd4b512+32bit"} {
		for _, kind := range []string{"chan", "framed", "tcp"} {
			t.Run(codec+"/"+kind, func(t *testing.T) {
				rb := NewReduceBroadcast(benchFabric(t, kind, k), policySpecs(codec), 3)
				if allocs := exchangeAllocs(t, rb, k); allocs != 0 {
					t.Errorf("steady-state exchange allocates %v times, want 0", allocs)
				}
			})
		}
	}
}

// TestRingExchangeAllocs: the same for the ring, K=4 — the full-precision
// NewRing (subtests named by fabric alone) and the ring carrying a
// codec, whose hops re-encode partial sums and relay received bytes.
func TestRingExchangeAllocs(t *testing.T) {
	const k = 4
	for _, codec := range []string{"", "qsgd4b512", "1bit*64", "qsgd4b512+32bit"} {
		for _, kind := range []string{"chan", "tcp"} {
			name := kind
			if codec != "" {
				name = codec + "/" + kind
			}
			t.Run(name, func(t *testing.T) {
				f := benchFabric(t, kind, k)
				ring := NewRing(f)
				if codec != "" {
					ring = NewCollective(f, NCCL, policySpecs(codec), 3, nil)
				}
				if allocs := exchangeAllocs(t, ring, k); allocs != 0 {
					t.Errorf("steady-state ring exchange allocates %v times, want 0", allocs)
				}
			})
		}
	}
}

// TestSlabPoolSizeCycling: a link whose messages alternate between
// large and small, two in flight, settles on buffers that fit both and
// stops allocating; what it retains is bounded.
func TestSlabPoolSizeCycling(t *testing.T) {
	var p slabPool
	sizes := []int{1 << 20, 4 << 10, 256 << 10, 40, 2 << 20, 512}
	cycle := func() {
		var prev []byte
		for _, n := range sizes {
			b := p.get(n)
			if len(b) != n {
				t.Fatalf("get(%d) returned %d bytes", n, len(b))
			}
			if prev != nil {
				p.put(prev)
			}
			prev = b
		}
		p.put(prev)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("size-cycling link allocates %v times per cycle in steady state", allocs)
	}
	// Flood the list: what it retains is bounded.
	for i := 0; i < 2*maxRetainedSlabs; i++ {
		p.put(make([]byte, 16))
	}
	if len(p.free) != maxRetainedSlabs {
		t.Fatalf("pool retains %d slabs, bound is %d", len(p.free), maxRetainedSlabs)
	}
	// And a retained slab that is too small is replaced, not handed out.
	if b := p.get(1 << 20); len(b) != 1<<20 {
		t.Fatalf("get(1 MiB) returned %d bytes", len(b))
	}
}
