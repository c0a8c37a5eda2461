package parallel

import (
	"testing"
	"time"

	"repro/nn"
	"repro/quant"
)

// TestStepAllocs bounds what one whole synchronous step allocates over
// loopback TCP, K=2: the exchange, the shards' batches (GatherInto
// reuses each rank's), the straggler report (written in place) and the
// spawn of the workers (each replica's run func is built once, and the
// WaitGroup that joins them is the trainer's) contribute nothing in
// steady state, so a step allocates nothing. The guarded case runs the
// step through runStep under a one-minute StepDeadline: its watchdog
// reuses one timer, so the bound is the same.
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
				step() // receive buffers and layer scratch reach their sizes
			}
			const bound = 0
			if allocs := testing.AllocsPerRun(20, step); allocs > bound {
				t.Errorf("%s deadline=%v: a K=2 TCP step allocates %v times, want at most %d", policy, deadline, allocs, bound)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEvaluateAllocs: an evaluation gathers every batch into storage
// the trainer keeps, so once that storage and the layers' inference
// scratch have reached their sizes, what one call allocates is its two
// result slices, however many batches the split has.
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account; the bound is asserted without -race")
	}
	train, _ := blobData(t)
	tr, err := NewTrainer(buildMLP(36, 4), Config{
		Workers: 2, BatchSize: 16, Epochs: 1, Schedule: nn.ConstantLR(0.05), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	eval := func() { tr.EvaluateKs(train, 1, 5) } // 512 samples: two batches
	eval()
	if allocs := testing.AllocsPerRun(10, eval); allocs > 2 {
		t.Errorf("EvaluateKs over two batches allocates %v times, want at most 2", allocs)
	}
}
