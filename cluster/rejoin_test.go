package cluster_test

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/cluster"
	"repro/elastic"
	"repro/health"
	"repro/lpsgd"
)

// elasticWorldResult is one rank's outcome of an elastic in-process
// cluster run.
type elasticWorldResult struct {
	ckpt []byte
	err  error
}

// elasticTrainOpts are the training options every rank — original or
// replacement — of the in-process elastic tests must share.
func elasticTrainOpts() []lpsgd.Option {
	return []lpsgd.Option{
		lpsgd.WithBatchSize(24),
		lpsgd.WithEpochs(8),
		lpsgd.WithSeed(7),
	}
}

// joinElastic dials the fresh rendezvous at addr as a non-coordinator
// rank, accepting the policy every elastic test trains under.
func joinElastic(addr string, rank, world int) (*cluster.Session, error) {
	return cluster.Join(cluster.Config{Addr: addr, Rank: rank, World: world, Accept: []string{"qsgd4b512"}})
}

// TestElasticRejoinDigestParity is the elastic acceptance test in its
// race-detector-friendly form: a three-rank in-process cluster trains
// under qsgd4b512 with elasticity on; rank 2 is killed abruptly
// (control links cut with no bye — the SIGKILL signature) after a few
// steps; the survivors quiesce and hold the rejoin barrier, a
// replacement joins via cluster.Rejoin, restores the donor's snapshot
// and finishes the run. Every rank's final model digest — survivors'
// and the replacement's — must be bit-identical to an uninterrupted
// run of the same seed, policy and elastic settings.
func TestElasticRejoinDigestParity(t *testing.T) {
	uninterrupted := runElasticWorld(t, false)
	interrupted := runElasticWorld(t, true)
	if !bytes.Equal(interrupted, uninterrupted) {
		t.Fatal("kill-and-rejoin run diverged from the uninterrupted run — elastic resume is not bit-exact")
	}
}

// runElasticWorld runs the three-rank elastic world, optionally killing
// rank 2 mid-run and rejoining a replacement, and returns the agreed
// final checkpoint bytes (asserting all ranks match on the way).
func runElasticWorld(t *testing.T, kill bool) []byte {
	t.Helper()
	const world = 3
	const victim = world - 1
	hb := health.Config{Interval: 25 * time.Millisecond, Timeout: 500 * time.Millisecond}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Addr: "127.0.0.1:0", World: world,
		Accept:  []string{"qsgd4b512"},
		Timeout: 30 * time.Second,
		Health:  hb,
		Elastic: elastic.Config{Enable: true, RejoinWindow: 30 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := coord.Addr()

	model, train, test := trainingTask()
	results := make([]elasticWorldResult, world+1) // +1: the replacement reports separately
	trainers := make([]*lpsgd.Trainer, world)
	var trainersMu sync.Mutex
	var wg sync.WaitGroup

	runRank := func(rank, slot int, join func() (*cluster.Session, *elastic.Snapshot, error)) {
		defer wg.Done()
		sess, restore, err := join()
		if err != nil {
			results[slot].err = err
			return
		}
		trainer, err := lpsgd.NewTrainer(model, append(elasticTrainOpts(), lpsgd.WithClusterSession(sess))...)
		if err != nil {
			results[slot].err = err
			return
		}
		defer trainer.Close()
		if restore != nil {
			if err := trainer.Restore(restore); err != nil {
				results[slot].err = err
				return
			}
		}
		trainersMu.Lock()
		trainers[rank] = trainer
		trainersMu.Unlock()
		if _, err := trainer.Run(train, test); err != nil {
			results[slot].err = err
			return
		}
		var buf bytes.Buffer
		if err := trainer.SaveCheckpoint(&buf); err != nil {
			results[slot].err = err
			return
		}
		results[slot].ckpt = buf.Bytes()
	}

	wg.Add(world)
	for rank := 1; rank < world; rank++ {
		go runRank(rank, rank, func() (*cluster.Session, *elastic.Snapshot, error) {
			sess, err := joinElastic(addr, rank, world)
			return sess, nil, err
		})
	}
	go runRank(0, 0, func() (*cluster.Session, *elastic.Snapshot, error) {
		sess, err := coord.Join()
		return sess, nil, err
	})

	if kill {
		// Wait until the victim has provably applied a few steps, then
		// cut its control links with no bye — the SIGKILL signature the
		// survivors' detectors turn into a death verdict.
		deadline := time.Now().Add(20 * time.Second)
		for {
			trainersMu.Lock()
			victimTrainer := trainers[victim]
			trainersMu.Unlock()
			if victimTrainer != nil {
				if s := victimTrainer.StepStats(); s.Step >= 3 {
					victimTrainer.Monitor().Kill()
					break
				}
			}
			if time.Now().After(deadline) {
				t.Fatal("victim never reached step 3")
			}
			time.Sleep(2 * time.Millisecond)
		}
		// The replacement claims the victim's slot through the reopened
		// rendezvous, restores the donor's snapshot, and runs to the end.
		wg.Add(1)
		go runRank(victim, world, func() (*cluster.Session, *elastic.Snapshot, error) {
			return cluster.Rejoin(cluster.Config{
				Addr: addr, Rank: victim, World: world,
				Accept:  []string{"qsgd4b512"},
				Timeout: 30 * time.Second,
				Health:  hb,
			})
		})
	}
	wg.Wait()

	// The killed rank's own trainer must have failed (its world aborted
	// around it); every other participant must have finished cleanly.
	for slot, res := range results {
		switch {
		case kill && slot == victim:
			if res.err == nil {
				t.Fatalf("the killed rank's trainer finished cleanly — the kill never bit")
			}
		case !kill && slot == world:
			// No replacement in the uninterrupted run.
		default:
			if res.err != nil {
				t.Fatalf("slot %d: %v", slot, res.err)
			}
		}
	}
	ref := results[0].ckpt
	if len(ref) == 0 {
		t.Fatal("rank 0 produced no checkpoint")
	}
	for slot, res := range results {
		if res.ckpt == nil {
			continue
		}
		if !bytes.Equal(res.ckpt, ref) {
			t.Fatalf("slot %d's digest differs from rank 0's", slot)
		}
	}
	return ref
}

// TestElasticRejoinWindowExpiry: when no replacement arrives within the
// window, the survivors surface the original death verdict — elasticity
// degrades to PR 4's coordinated abort, never a hang.
func TestElasticRejoinWindowExpiry(t *testing.T) {
	const world = 2
	hb := health.Config{Interval: 25 * time.Millisecond, Timeout: 400 * time.Millisecond}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Addr: "127.0.0.1:0", World: world,
		Accept:  []string{"qsgd4b512"},
		Timeout: 20 * time.Second,
		Health:  hb,
		Elastic: elastic.Config{Enable: true, RejoinWindow: 700 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	model, train, test := trainingTask()

	victimUp := make(chan *lpsgd.Trainer, 1)
	res := make(chan error, 1)
	go func() {
		sess, err := joinElastic(coord.Addr(), 1, world)
		if err != nil {
			victimUp <- nil
			res <- err
			return
		}
		trainer, err := lpsgd.NewTrainer(model,
			lpsgd.WithClusterSession(sess),
			lpsgd.WithBatchSize(24),
			lpsgd.WithEpochs(100000),
			lpsgd.WithSeed(7),
		)
		if err != nil {
			victimUp <- nil
			res <- err
			return
		}
		victimUp <- trainer
		_, err = trainer.Run(train, test)
		trainer.Close()
		res <- err
	}()

	sess, err := coord.Join()
	if err != nil {
		t.Fatal(err)
	}
	coordTrainer, err := lpsgd.NewTrainer(model,
		lpsgd.WithClusterSession(sess),
		lpsgd.WithBatchSize(24),
		lpsgd.WithEpochs(100000),
		lpsgd.WithSeed(7),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer coordTrainer.Close()

	victim := <-victimUp
	if victim == nil {
		t.Fatalf("victim failed to join: %v", <-res)
	}
	runDone := make(chan error, 1)
	go func() {
		_, err := coordTrainer.Run(train, test)
		runDone <- err
	}()
	// Let training start, then kill the victim with no replacement.
	for victim.StepStats().Step < 2 {
		time.Sleep(2 * time.Millisecond)
	}
	victim.Monitor().Kill()
	<-res // victim's own run fails on its aborted world

	select {
	case err := <-runDone:
		var dead health.ErrPeerDead
		if !errors.As(err, &dead) {
			t.Fatalf("survivor returned %v, want a health.ErrPeerDead after window expiry", err)
		}
		if dead.Rank != 1 {
			t.Fatalf("verdict blames rank %d, want 1", dead.Rank)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("survivor hung past the rejoin window")
	}
}
