package parallel

import (
	"testing"

	"repro/nn"
	"repro/quant"
)

// TestStepAllocs bounds what one whole synchronous step allocates over
// loopback TCP, K=2: the exchange and the shards' batches (GatherInto
// reuses each rank's) contribute nothing in steady state, so what
// remains is the engine's own fixed handful — the two worker goroutines
// and the published StepStats.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; the bound is asserted without -race")
	}
	train, _ := blobData(t)
	for _, policy := range []string{"32bit", "qsgd4b512"} {
		tr, err := NewTrainer(buildMLP(36, 4), Config{
			Workers: 2, UseTCP: true, BatchSize: 16, Epochs: 1,
			Schedule: nn.ConstantLR(0.05), Seed: 3,
			Policy: quant.MustParsePolicy(policy + ";minfrac=1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		batch := make([]int, 16)
		for i := range batch {
			batch[i] = i
		}
		step := func() {
			if _, err := tr.step(train, batch); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			step() // link slabs and layer scratch reach their sizes
		}
		const bound = 9
		if allocs := testing.AllocsPerRun(20, step); allocs > bound {
			t.Errorf("%s: a K=2 TCP step allocates %v times, want at most %d", policy, allocs, bound)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
