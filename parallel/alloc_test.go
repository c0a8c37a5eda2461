package parallel

import (
	"testing"
	"time"

	"repro/nn"
	"repro/quant"
)

// TestStepAllocs bounds what one whole synchronous step allocates over
// loopback TCP, K=2: the exchange, the shards' batches (GatherInto
// reuses each rank's) and the straggler report (written in place)
// contribute nothing in steady state, so what remains is the engine's
// own fixed handful — the two worker goroutines' closures and the
// WaitGroup that joins them. The guarded case runs the step through
// runStep under a one-minute StepDeadline: its watchdog reuses one
// timer, so the bound is the same.
func TestStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; the bound is asserted without -race")
	}
	train, _ := blobData(t)
	for _, policy := range []string{"32bit", "qsgd4b512"} {
		for _, deadline := range []time.Duration{0, time.Minute} {
			tr, err := NewTrainer(buildMLP(36, 4), Config{
				Workers: 2, UseTCP: true, BatchSize: 16, Epochs: 1,
				Schedule: nn.ConstantLR(0.05), Seed: 3,
				Policy:       quant.MustParsePolicy(policy + ";minfrac=1"),
				StepDeadline: deadline,
			})
			if err != nil {
				t.Fatal(err)
			}
			batch := make([]int, 16)
			for i := range batch {
				batch[i] = i
			}
			step := func() {
				run := tr.step
				if deadline > 0 {
					run = tr.runStep
				}
				if _, err := run(train, batch); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 20; i++ {
				step() // link slabs and layer scratch reach their sizes
			}
			const bound = 3
			if allocs := testing.AllocsPerRun(20, step); allocs > bound {
				t.Errorf("%s deadline=%v: a K=2 TCP step allocates %v times, want at most %d", policy, deadline, allocs, bound)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
