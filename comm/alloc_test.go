package comm

import (
	"cmp"
	"fmt"
	"testing"

	"repro/quant"
)

// exchangeAllocs warms an exchange up on an inventory — the MLP's
// message sizes cycle from 2 MB down to 40 bytes on every link, the
// case a free list that hands out buffers in FIFO order never recovers
// from — calls prime if it is not nil, and returns the allocations per
// steady-state exchange. The exchanges run on persistent goroutines, so
// the figure is the exchange's alone.
func exchangeAllocs(t *testing.T, exchange exchangeFunc, k int, shapes []quant.Shape, prime func()) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; zero is asserted without -race")
	}
	d := newExchangeDriver(exchange, k, shapes)
	defer d.stop()
	run := func() {
		if err := d.run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		run() // slabs, receive buffers and frame decoders reach steady state
	}
	if prime != nil {
		prime()
	}
	return testing.AllocsPerRun(10, run)
}

// primeSlabs fills every slab list that a link of f has met to
// maxRetainedSlabs. The all-tensor subtests count allocations after it:
// a round-major exchange keeps up to a window of messages in flight per
// link, and how many of one size class a link ever has out at once
// depends on how far the scheduler lets one rank run ahead, so its
// slab lists can take hundreds of exchanges to meet those rare peaks
// (after 100 the K=4 ring under 1bit*64 still allocated about once per
// exchange in 2 of 8 runs). With every list full, an allocation is the
// exchange's own, a size class met for the first time, or a link with
// more slabs of a class out than it retains.
func primeSlabs(t *testing.T, f Transport) func() {
	return func() {
		for _, p := range linkPools(t, f) {
			p.mu.Lock()
			for i := range p.classes {
				l := &p.classes[i]
				for len(l.free) < maxRetainedSlabs {
					l.free = append(l.free, make([]byte, l.size))
				}
			}
			p.mu.Unlock()
		}
	}
}

// allInventories are the inventories the all-tensor exchange is held to
// zero allocations on: the MLP's six tensors and the CNN's twelve.
var allInventories = []struct {
	name   string
	shapes []quant.Shape
}{{"mlp", mlpInventory}, {"cnn", cnnInventory}}

// TestReduceBroadcastExchangeAllocs: in steady state a
// reduce-and-broadcast exchange allocates nothing — not per message,
// not per tensor — for every codec family on every fabric, nor when a
// policy alternates codecs from one tensor to the next (the framed
// receive path must not re-parse a codec name per switch); tensor by
// tensor, and (subtests under all/) as one ReduceAll on the MLP's and
// the CNN's inventories.
func TestReduceBroadcastExchangeAllocs(t *testing.T) {
	const k = 2
	for _, codec := range []string{"32bit", "qsgd4b512", "1bit", "qsgd4b512+32bit"} {
		for _, kind := range []string{"chan", "framed", "tcp"} {
			t.Run(codec+"/"+kind, func(t *testing.T) {
				rb := NewReduceBroadcast(benchFabric(t, kind, k), inventorySpecs(mlpInventory, codec), 3)
				if allocs := exchangeAllocs(t, eachTensor(rb), k, mlpInventory, nil); allocs != 0 {
					t.Errorf("steady-state exchange allocates %v times, want 0", allocs)
				}
			})
			for _, inv := range allInventories {
				t.Run("all/"+inv.name+"/"+codec+"/"+kind, func(t *testing.T) {
					f := benchFabric(t, kind, k)
					rb := NewReduceBroadcast(f, inventorySpecs(inv.shapes, codec), 3)
					if allocs := exchangeAllocs(t, rb.ReduceAll, k, inv.shapes, primeSlabs(t, f)); allocs != 0 {
						t.Errorf("steady-state all-tensor exchange allocates %v times, want 0", allocs)
					}
				})
			}
		}
	}
}

// TestRingExchangeAllocs: the same for the ring, K=4 — the full-precision
// NewRing (subtests named by fabric alone, "learned" under all/) and the
// ring carrying a codec, whose hops re-encode partial sums and relay
// received bytes.
func TestRingExchangeAllocs(t *testing.T) {
	const k = 4
	for _, codec := range []string{"", "qsgd4b512", "1bit*64", "qsgd4b512+32bit"} {
		ring := func(f Transport, shapes []quant.Shape) *Collective {
			if codec == "" {
				return NewRing(f)
			}
			return NewCollective(f, NCCL, inventorySpecs(shapes, codec), 3, nil)
		}
		for _, kind := range []string{"chan", "tcp"} {
			name := kind
			if codec != "" {
				name = codec + "/" + kind
			}
			t.Run(name, func(t *testing.T) {
				f := benchFabric(t, kind, k)
				if allocs := exchangeAllocs(t, eachTensor(ring(f, mlpInventory)), k, mlpInventory, nil); allocs != 0 {
					t.Errorf("steady-state ring exchange allocates %v times, want 0", allocs)
				}
			})
			for _, inv := range allInventories {
				name := cmp.Or(codec, "learned")
				t.Run("all/"+inv.name+"/"+name+"/"+kind, func(t *testing.T) {
					f := benchFabric(t, kind, k)
					if allocs := exchangeAllocs(t, ring(f, inv.shapes).ReduceAll, k, inv.shapes, primeSlabs(t, f)); allocs != 0 {
						t.Errorf("steady-state all-tensor ring exchange allocates %v times, want 0", allocs)
					}
				})
			}
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
	// Flood a list: what it retains is bounded.
	for i := 0; i < 2*maxRetainedSlabs; i++ {
		p.put(make([]byte, 16))
	}
	if n := len(p.list(16).free); n != maxRetainedSlabs {
		t.Fatalf("pool retains %d slabs, bound is %d", n, maxRetainedSlabs)
	}
	// And a retained slab that is too small is replaced, not handed out.
	if b := p.get(1 << 20); len(b) != 1<<20 {
		t.Fatalf("get(1 MiB) returned %d bytes", len(b))
	}
}

// TestSlabPoolRetainsByClass: a link that had a full queue of 40-byte
// messages and one 1 MiB + 24-byte message out at once retains those
// slabs, each at most 1/8 over its message — not a queue of slabs the
// size of the largest.
func TestSlabPoolRetainsByClass(t *testing.T) {
	for _, n := range []int{0, 1, 16, 17, 40, 1000, 4096, 4097, 1<<20 + 24} {
		if c := slabClass(n); c < n || c > max(n+n/8, 16) {
			t.Errorf("slabClass(%d) = %d, want within [n, n+n/8]", n, c)
		}
	}
	var p slabPool
	held := [][]byte{p.get(1<<20 + 24)}
	for i := 0; i < linkBuffer; i++ {
		held = append(held, p.get(40))
	}
	for _, b := range held {
		p.put(b)
	}
	want := slabClass(1<<20+24) + linkBuffer*slabClass(40)
	if got := retainedBytes(&p); got != want {
		t.Errorf("pool retains %d bytes, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		for i, b := range held {
			held[i] = p.get(len(b))
		}
		for _, b := range held {
			p.put(b)
		}
	}); allocs != 0 {
		t.Errorf("refilling the same messages allocates %v times", allocs)
	}
}

// retainedBytes is what a slab pool holds for reuse.
func retainedBytes(p *slabPool) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := 0
	for _, l := range p.classes {
		total += l.size * len(l.free)
	}
	return total
}

// linkPools returns the slab pool of each directed link of f.
func linkPools(t *testing.T, f Transport) map[[2]int]*slabPool {
	t.Helper()
	if ff, ok := f.(framedFabric); ok {
		f = ff.Fabric
	}
	pools := map[[2]int]*slabPool{}
	for from := 0; from < f.K(); from++ {
		for to := 0; to < f.K(); to++ {
			if from == to {
				continue
			}
			switch f := f.(type) {
			case *Fabric:
				pools[[2]int{from, to}] = &f.slabs[f.link(from, to)]
			case *TCPFabric:
				pools[[2]int{from, to}] = &f.Rank(from).links[to].slabs
			default:
				t.Fatalf("linkPools: unknown fabric %T", f)
			}
		}
	}
	return pools
}

// TestSlabRetentionMixedInventory: under a round-major exchange of one
// large tensor among many small ones (an embedding and its biases),
// every link retains at most twice the bytes it carries per exchange.
// Slabs sized to a link's largest message would retain a window of
// large ones.
func TestSlabRetentionMixedInventory(t *testing.T) {
	shapes := []quant.Shape{{Rows: 4096, Cols: 64}}
	for i := 0; i < 40; i++ {
		shapes = append(shapes, quant.Shape{Rows: 64, Cols: 1})
	}
	const exchanges = 20
	for _, tc := range []struct {
		prim Primitive
		k    int
	}{{MPI, 2}, {NCCL, 4}} {
		for _, kind := range []string{"chan", "tcp"} {
			t.Run(fmt.Sprintf("%s/k%d/%s", tc.prim, tc.k, kind), func(t *testing.T) {
				f := benchFabric(t, kind, tc.k)
				c := NewCollective(f, tc.prim, inventorySpecs(shapes, "32bit"), 3, nil)
				d := newExchangeDriver(c.ReduceAll, tc.k, shapes)
				defer d.stop()
				for i := 0; i < exchanges; i++ {
					if err := d.run(); err != nil {
						t.Fatal(err)
					}
				}
				traffic := linkTraffic(t, f)
				for l, p := range linkPools(t, f) {
					perExchange := traffic[l].TxBytes / exchanges
					if got := int64(retainedBytes(p)); got > 2*perExchange {
						t.Errorf("link %d→%d retains %d bytes of slabs, carries %d per exchange", l[0], l[1], got, perExchange)
					}
				}
			})
		}
	}
}
