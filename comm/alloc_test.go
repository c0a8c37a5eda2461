package comm

import (
	"cmp"
	"testing"

	"repro/quant"
)

// exchangeAllocs warms an exchange up on an inventory — the MLP's
// message sizes cycle from 2 MB down to 40 bytes on every link — and
// returns the allocations per steady-state exchange. The exchanges run
// on persistent goroutines, so the figure is the exchange's alone.
func exchangeAllocs(t *testing.T, f Transport, exchange exchangeFunc, shapes []quant.Shape) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; zero is asserted without -race")
	}
	d := newExchangeDriver(f, exchange, shapes)
	defer d.stop()
	run := func() {
		if err := d.run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		run() // receive buffers and frame decoders reach steady state
	}
	return testing.AllocsPerRun(10, run)
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
				f := benchFabric(t, kind, k)
				rb := NewReduceBroadcast(f, inventorySpecs(mlpInventory, codec), 3)
				if allocs := exchangeAllocs(t, f, eachTensor(rb), mlpInventory); allocs != 0 {
					t.Errorf("steady-state exchange allocates %v times, want 0", allocs)
				}
			})
			for _, inv := range allInventories {
				t.Run("all/"+inv.name+"/"+codec+"/"+kind, func(t *testing.T) {
					f := benchFabric(t, kind, k)
					rb := NewReduceBroadcast(f, inventorySpecs(inv.shapes, codec), 3)
					if allocs := exchangeAllocs(t, f, rb.ReduceAll, inv.shapes); allocs != 0 {
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
				if allocs := exchangeAllocs(t, f, eachTensor(ring(f, mlpInventory)), mlpInventory); allocs != 0 {
					t.Errorf("steady-state ring exchange allocates %v times, want 0", allocs)
				}
			})
			for _, inv := range allInventories {
				name := cmp.Or(codec, "learned")
				t.Run("all/"+inv.name+"/"+name+"/"+kind, func(t *testing.T) {
					f := benchFabric(t, kind, k)
					if allocs := exchangeAllocs(t, f, ring(f, inv.shapes).ReduceAll, inv.shapes); allocs != 0 {
						t.Errorf("steady-state all-tensor ring exchange allocates %v times, want 0", allocs)
					}
				})
			}
		}
	}
}
