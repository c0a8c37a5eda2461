package parallel

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/comm"
	"repro/elastic"
	"repro/nn"
	"repro/quant"
)

// stubRejoiner satisfies elastic.Rejoiner for trainers that want
// elastic-session semantics (step-keyed stochastic streams, snapshot
// cursors) without a cluster rendezvous behind them. Tests that do not
// exercise a death never call it.
type stubRejoiner struct{}

func (stubRejoiner) Rejoin(verdict error, _ elastic.LocalState) (*elastic.Outcome, error) {
	return nil, fmt.Errorf("stub rejoiner cannot repair: %w", verdict)
}

// elasticClusterRun drives a k-rank cluster-topology world (one trainer
// per rank over a shared TCP mesh, elastic semantics on) for the given
// epochs under prim and policy, optionally restoring every rank from
// state bytes first, and returns each rank's final weights checkpoint
// and full session state.
func elasticClusterRun(t *testing.T, prim comm.Primitive, policy string, k, epochs int, state []byte) (ckpts, states [][]byte) {
	t.Helper()
	train, test := blobData(t)
	mesh, err := comm.NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	trainers := make([]*Trainer, k)
	for rank := 0; rank < k; rank++ {
		cfg := Config{
			Workers:   k,
			Policy:    quant.MustParsePolicy(policy),
			Primitive: prim,
			BatchSize: 48,
			Epochs:    epochs,
			Seed:      5,
			Momentum:  0.9,
			Fabric:    mesh.Rank(rank),
			Rank:      rank,
			Elastic:   stubRejoiner{},
		}
		tr, err := NewTrainer(buildMLP(36, 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if state != nil {
			if err := tr.LoadState(bytes.NewReader(state)); err != nil {
				t.Fatalf("rank %d: %v", rank, err)
			}
		}
		trainers[rank] = tr
	}
	ckpts = make([][]byte, k)
	states = make([][]byte, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for rank := 0; rank < k; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if _, err := trainers[rank].Run(train, test); err != nil {
				errs[rank] = err
				return
			}
			var ck, st bytes.Buffer
			if err := trainers[rank].SaveCheckpoint(&ck); err != nil {
				errs[rank] = err
				return
			}
			if err := trainers[rank].SaveState(&st); err != nil {
				errs[rank] = err
				return
			}
			ckpts[rank], states[rank] = ck.Bytes(), st.Bytes()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return ckpts, states
}

// TestElasticStateResumeEquivalence is the resume guarantee behind
// rejoin, isolated from the rendezvous: a 2-rank cluster trains 2
// epochs and saves its full session state (weights, velocity, cursor);
// a fresh cluster loads that state on every rank and trains to epoch 4;
// the final weights must be bit-identical to a single uninterrupted
// 4-epoch run — momentum, batch order and stochastic rounding streams
// all resume exactly, under either schedule (the ring's per-hop
// encoders are step-keyed as the direct schedule's are) and under a
// mixed residual-free policy.
func TestElasticStateResumeEquivalence(t *testing.T) {
	const k = 2
	for _, prim := range []comm.Primitive{comm.MPI, comm.NCCL} {
		for _, policy := range []string{"qsgd4b512", "qsgd4b512;minfrac=1;d1=qsgd8b512;*.b=32bit"} {
			t.Run(prim.String()+"/"+policy, func(t *testing.T) {
				straight, _ := elasticClusterRun(t, prim, policy, k, 4, nil)
				_, halfState := elasticClusterRun(t, prim, policy, k, 2, nil)
				if !bytes.Equal(halfState[0], halfState[1]) {
					t.Fatal("ranks saved different session states from one run")
				}
				resumed, _ := elasticClusterRun(t, prim, policy, k, 4, halfState[0])
				for rank := 0; rank < k; rank++ {
					if !bytes.Equal(resumed[rank], straight[rank]) {
						t.Fatalf("rank %d: resumed run diverged from the uninterrupted one", rank)
					}
				}
				if !bytes.Equal(straight[0], straight[1]) {
					t.Fatal("uninterrupted run's replicas diverged")
				}
			})
		}
	}
}

// TestElasticStateRejectsMismatchedConfig: a snapshot must not restore
// into a trainer whose seed, world or hyperparameters differ — resuming
// a different trajectory silently would be worse than failing.
func TestElasticStateRejectsMismatchedConfig(t *testing.T) {
	train, _ := blobData(t)
	_ = train
	base := Config{
		Workers:   2,
		Policy:    &quant.Policy{Base: quant.MustParse("qsgd4b512")},
		BatchSize: 48,
		Epochs:    2,
		Seed:      5,
		Momentum:  0.9,
	}
	mesh, err := comm.NewTCPFabric(2)
	if err != nil {
		t.Fatal(err)
	}
	defer mesh.Close()
	cfg := base
	cfg.Fabric = mesh.Rank(0)
	cfg.Elastic = stubRejoiner{}
	tr, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var state bytes.Buffer
	if err := tr.SaveState(&state); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*Config){
		"seed":     func(c *Config) { c.Seed = 6 },
		"momentum": func(c *Config) { c.Momentum = 0.8 },
		"policy":   func(c *Config) { c.Policy = &quant.Policy{Base: quant.MustParse("qsgd8b512")} },
	} {
		other := base
		mutate(&other)
		// A single-process trainer suffices for validation checks.
		otr, err := NewTrainer(buildMLP(36, 4), other)
		if err != nil {
			t.Fatal(err)
		}
		if err := otr.LoadState(bytes.NewReader(state.Bytes())); err == nil {
			t.Errorf("%s mismatch: state loaded without error", name)
		}
		otr.Close()
	}

	// A different architecture fails through the checkpoint decoder.
	wrong, err := NewTrainer(buildMLP(36, 8), base)
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if err := wrong.LoadState(bytes.NewReader(state.Bytes())); err == nil {
		t.Error("architecture mismatch: state loaded without error")
	}
}

// TestElasticRequiresClusterMode: the rejoin controller is meaningless
// for a trainer that owns the whole world.
func TestElasticRequiresClusterMode(t *testing.T) {
	cfg := Config{Workers: 2, BatchSize: 8, Epochs: 1, Elastic: stubRejoiner{}}
	if _, err := NewTrainer(buildMLP(36, 4), cfg); err == nil {
		t.Fatal("single-process trainer accepted an elastic controller")
	}
}

// TestLoadCheckpointClusterWarmStart covers Trainer.LoadCheckpoint in a
// multi-rank cluster: every rank warm-starts from the same weights-only
// checkpoint, the replicas stay bit-identical through further training,
// and a shape-mismatched checkpoint fails cleanly on every rank.
func TestLoadCheckpointClusterWarmStart(t *testing.T) {
	const k = 3
	train, test := blobData(t)

	// Produce a donor checkpoint from a short single-process run.
	donorCfg := Config{Workers: 1, BatchSize: 16, Epochs: 1, Seed: 11}
	donor, err := NewTrainer(buildMLP(36, 4), donorCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	if _, err := donor.Run(train, test); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := donor.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	mesh, err := comm.NewTCPFabric(k)
	if err != nil {
		t.Fatal(err)
	}
	trainers := make([]*Trainer, k)
	for rank := 0; rank < k; rank++ {
		cfg := Config{
			Workers: k, BatchSize: 48, Epochs: 2, Seed: 5, Momentum: 0.9,
			Policy: &quant.Policy{Base: quant.MustParse("qsgd4b512")},
			Fabric: mesh.Rank(rank), Rank: rank,
		}
		tr, err := NewTrainer(buildMLP(36, 4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		if err := tr.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err != nil {
			t.Fatalf("rank %d warm start: %v", rank, err)
		}
		trainers[rank] = tr
	}
	ckpts := make([][]byte, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for rank := 0; rank < k; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if _, err := trainers[rank].Run(train, test); err != nil {
				errs[rank] = err
				return
			}
			var buf bytes.Buffer
			errs[rank] = trainers[rank].SaveCheckpoint(&buf)
			ckpts[rank] = buf.Bytes()
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank := 1; rank < k; rank++ {
		if !bytes.Equal(ckpts[rank], ckpts[0]) {
			t.Fatalf("rank %d diverged from rank 0 after a shared warm start", rank)
		}
	}

	// Shape mismatch: a checkpoint from a different architecture is
	// rejected with a named error, not a panic or silent corruption.
	wrong, err := NewTrainer(buildMLP(36, 8), Config{Workers: 1, BatchSize: 8, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if err := wrong.LoadCheckpoint(bytes.NewReader(ckpt.Bytes())); err == nil {
		t.Fatal("shape-mismatched checkpoint loaded without error")
	}
}

// TestLoadCheckpointFansOutToLocalReplicas: in single-process mode
// LoadCheckpoint restores every local replica, so a fresh K=2 trainer
// loaded from a trained one evaluates identically and stays in sync.
func TestLoadCheckpointFansOutToLocalReplicas(t *testing.T) {
	train, test := blobData(t)
	cfg := Config{
		Workers: 2, BatchSize: 32, Epochs: 3, Seed: 21, Momentum: 0.9,
		Policy:   quant.NewPolicy(quant.NewQSGD(8, 512, quant.MaxNorm)),
		Schedule: nn.ConstantLR(0.1),
	}
	trained, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer trained.Close()
	if _, err := trained.Run(train, test); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := trained.SaveCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewTrainer(buildMLP(36, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.LoadCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if a, b := trained.Evaluate(test), fresh.Evaluate(test); a != b {
		t.Fatalf("checkpointed model evaluates differently: %v vs %v", a, b)
	}
	if !fresh.ReplicasInSync() {
		t.Fatal("LoadCheckpoint left the local replicas out of sync")
	}
}
