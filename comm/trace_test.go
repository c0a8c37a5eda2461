package comm

import (
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/obs"
	"repro/quant"
	"repro/rng"
)

// TestRemoteFabricPerPeerAccounting pins the satellite contract: the
// per-peer counters are the source of truth and the aggregate totals
// are their sums, header bytes excluded, payload counted on both ends.
func TestRemoteFabricPerPeerAccounting(t *testing.T) {
	f, err := NewTCPFabric(3)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	payloads := map[int][]byte{1: make([]byte, 100), 2: make([]byte, 37)}
	for to, p := range payloads {
		if err := f.Rank(0).Send(0, to, nil, p); err != nil {
			t.Fatal(err)
		}
	}
	for to := range payloads {
		if _, err := f.Rank(to).Recv(0, to); err != nil { // the variable-length path keeps the same ledger
			t.Fatal(err)
		}
	}

	r0 := f.Rank(0)
	if got := r0.PeerTraffic(1); got.TxBytes != 100 || got.TxFrames != 1 {
		t.Fatalf("rank0->1 traffic = %+v", got)
	}
	if got := r0.PeerTraffic(2); got.TxBytes != 37 || got.TxFrames != 1 {
		t.Fatalf("rank0->2 traffic = %+v", got)
	}
	if got := r0.PeerTraffic(0); got != (PeerTraffic{}) {
		t.Fatalf("self slot = %+v, want zero", got)
	}
	if r0.TotalBytes() != 137 || r0.TotalMessages() != 2 {
		t.Fatalf("aggregate = %d bytes / %d msgs, want 137/2",
			r0.TotalBytes(), r0.TotalMessages())
	}
	// Receivers account payload bytes (not the 4-byte header) per link.
	if got := f.Rank(1).PeerTraffic(0); got.RxBytes != 100 || got.RxFrames != 1 {
		t.Fatalf("rank1<-0 traffic = %+v", got)
	}
	if got := f.Rank(2).PeerTraffic(0); got.RxBytes != 37 || got.RxFrames != 1 {
		t.Fatalf("rank2<-0 traffic = %+v", got)
	}
}

// runTracedExchange reduces one tensor across k ranks of an in-process
// fabric with the given collective and returns the recorded spans.
func runTracedExchange(t *testing.T, k int, build func(Transport) *Collective) []obs.Span {
	t.Helper()
	f := NewFabric(k)
	red := build(f)
	tr := obs.NewTracer(256)
	red.SetTracer(tr)
	tr.SetStep(5)

	var wg sync.WaitGroup
	for w := 0; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := make([]float32, 64)
			for i := range g {
				g[i] = float32(w + i)
			}
			if err := red.Reduce(w, 0, g); err != nil {
				t.Errorf("rank %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	return tr.Snapshot()
}

func TestReducerSpans(t *testing.T) {
	spec := func(codec string) []TensorSpec {
		return []TensorSpec{{Name: "w", N: 64, Wire: quant.Shape{Rows: 1, Cols: 64}, Codec: quant.MustParse(codec)}}
	}
	cases := []struct {
		name  string
		build func(Transport) *Collective
		phase obs.Phase // codec-side phase the reducer must report
	}{
		{"reduce-broadcast", func(f Transport) *Collective { return NewReduceBroadcast(f, spec("qsgd4b512"), 1) }, obs.PhaseQuantise},
		{"reduce-broadcast-32bit", func(f Transport) *Collective { return NewReduceBroadcast(f, spec("32bit"), 1) }, obs.PhaseEncode},
		{"ring", func(f Transport) *Collective { return NewRing(f) }, obs.PhaseEncode},
		{"quantised-ring", func(f Transport) *Collective { return NewCollective(f, NCCL, spec("qsgd4b512"), 1, nil) }, obs.PhaseQuantise},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spans := runTracedExchange(t, 3, tc.build)
			if len(spans) == 0 {
				t.Fatal("no spans recorded")
			}
			seen := map[obs.Phase]bool{}
			ranks := map[int]bool{}
			for _, s := range spans {
				seen[s.Phase] = true
				ranks[s.Rank] = true
				if s.Step != 5 {
					t.Fatalf("span step = %d, want 5 (from SetStep)", s.Step)
				}
				if s.DurNS < 0 || s.StartNS < 0 {
					t.Fatalf("negative timing in %+v", s)
				}
			}
			for _, want := range []obs.Phase{tc.phase, obs.PhaseTransfer, obs.PhaseDecode} {
				if !seen[want] {
					t.Errorf("no %v span; phases seen: %v", want, seen)
				}
			}
			if len(ranks) != 3 {
				t.Errorf("spans cover ranks %v, want all 3", ranks)
			}
			var xferBytes int64
			for _, s := range spans {
				if s.Phase == obs.PhaseTransfer {
					xferBytes += s.Bytes
				}
			}
			if xferBytes == 0 {
				t.Error("transfer spans carry no bytes")
			}
		})
	}
}

// TestReduceAllSpansPerTensor: one ReduceAll records each tensor's
// spans under the tensor's own name, and each tensor's transfer bytes
// on each rank are what a Reduce of that tensor alone records.
func TestReduceAllSpansPerTensor(t *testing.T) {
	const k = 3
	specs := inventorySpecs([]quant.Shape{{Rows: 16, Cols: 8}, {Rows: 5, Cols: 1}, {Rows: 40, Cols: 4}}, "qsgd4b512+32bit")
	inputs := randInputs(rng.New(8), k, []int{128, 5, 160})
	bytes := func(exchange func(*Collective) exchangeFunc) map[string]int64 {
		red := NewCollective(NewFabric(k), MPI, specs, 1, nil)
		tr := obs.NewTracer(1024)
		red.SetTracer(tr)
		runRanks(t, exchange(red), inputs)
		got := map[string]int64{}
		for _, s := range tr.Snapshot() {
			if s.Phase == obs.PhaseTransfer {
				got[fmt.Sprintf("%d/%s", s.Rank, s.Op)] += s.Bytes
			}
		}
		return got
	}
	each := bytes(func(c *Collective) exchangeFunc { return eachTensor(c) })
	all := bytes(func(c *Collective) exchangeFunc { return c.ReduceAll })
	if len(each) != k*len(specs) {
		t.Fatalf("per-tensor Reduce recorded transfer spans for %v, want every rank and tensor", each)
	}
	if !maps.Equal(all, each) {
		t.Errorf("ReduceAll transfer bytes per rank and tensor %v, Reduce %v", all, each)
	}
}

// TestReducerNilTracerInert: the default state must not record or
// misbehave — the digest-level inertness is pinned in parallel's
// TestObsDisabledDigestParity; this is the cheap structural check.
func TestReducerNilTracerInert(t *testing.T) {
	f := NewFabric(2)
	red := NewRing(f)
	red.SetTracer(nil)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := []float32{1, 2, 3, 4}
			if err := red.Reduce(w, 0, g); err != nil {
				t.Errorf("rank %d: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}
