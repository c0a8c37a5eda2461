package lpsgd_test

import (
	"errors"
	"testing"
	"time"

	"repro/lpsgd"
	"repro/parallel"
)

// TestHealthOptionValidation: malformed health-plane options surface
// from NewTrainer, not at the call site.
func TestHealthOptionValidation(t *testing.T) {
	model := lpsgd.MLP(64, 8, 4)
	cases := []struct {
		name string
		opt  lpsgd.Option
	}{
		{"negative step deadline", lpsgd.WithStepDeadline(-time.Second)},
		{"nil health handler", lpsgd.WithHealthHandler(nil)},
	}
	for _, tc := range cases {
		if _, err := lpsgd.NewTrainer(model, tc.opt); err == nil {
			t.Errorf("%s: NewTrainer accepted an invalid option", tc.name)
		}
	}
}

// TestWithStepDeadlineThroughFacade: the step deadline reaches the
// engine and aborts a run through the public API, and a health handler
// outside cluster mode is inert.
func TestWithStepDeadlineThroughFacade(t *testing.T) {
	train, test := lpsgd.SyntheticImages(4, 64, 32, 7)
	trainer, err := lpsgd.NewTrainer(lpsgd.MLP(64, 16, 4),
		lpsgd.WithWorkers(2),
		lpsgd.WithTransport(lpsgd.TCP),
		lpsgd.WithBatchSize(16),
		lpsgd.WithEpochs(1),
		lpsgd.WithStepDeadline(time.Nanosecond),
		lpsgd.WithHealthHandler(func(error) {}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer trainer.Close()
	_, err = trainer.Run(train, test)
	var dl parallel.ErrStepDeadline
	if !errors.As(err, &dl) {
		t.Fatalf("Run returned %v, want parallel.ErrStepDeadline", err)
	}
}
