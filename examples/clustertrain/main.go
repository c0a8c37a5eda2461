// Command clustertrain demonstrates multi-process training through the
// lpsgd facade: run the same binary once per rank and the ranks
// rendezvous, negotiate a gradient codec, and train over a dialled TCP
// mesh. On one machine:
//
//	go run ./examples/clustertrain -rank 0 &
//	go run ./examples/clustertrain -rank 1 &
//	go run ./examples/clustertrain -rank 2 &
//	wait
//
// Across machines, point -addr at the coordinator's host:port and give
// each machine its rank. Every rank must use the same seed and batch
// size — the replicas start bit-identical and the synchronous exchange
// keeps them that way, which each rank verifies at the end by printing
// the same final accuracy.
//
// Each rank describes the session once, as a cluster.Config, and joins
// it with cluster.Join; the facade adopts the session through
// lpsgd.WithClusterSession. The session here is elastic: if one rank
// dies mid-run, the survivors hold a rejoin barrier open instead of
// aborting, and a replacement launched with -rejoin takes the dead
// rank's slot through cluster.Rejoin, receives the training state from
// a surviving donor, and the run completes as if nothing happened:
//
//	go run ./examples/clustertrain -rank 1 -rejoin
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/cluster"
	"repro/elastic"
	"repro/health"
	"repro/lpsgd"
)

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:7071", "coordinator rendezvous address")
		rank   = flag.Int("rank", 0, "this process's rank")
		world  = flag.Int("world", 3, "total number of processes")
		rejoin = flag.Bool("rejoin", false, "replace a dead rank of the running session")
	)
	flag.Parse()

	train, test := lpsgd.SyntheticImages(10, 512, 256, 3)

	cfg := cluster.Config{
		Addr: *addr, Rank: *rank, World: *world,
		// Advertise a preference ladder of precision policies — a mixed
		// per-layer scheme first, then plain codecs; the session settles
		// on the cheapest one every rank accepts, floored at "32bit".
		Accept: []string{"qsgd4b512;*.b=32bit", "qsgd4b512", "qsgd8b512", "1bit*64"},
		// Health plane: a rank silent for 2 s (pinged every 250 ms over
		// its control link) is declared dead, every survivor's Run
		// returns the same health.ErrPeerDead, and the handler below gets
		// a chance to alert before this process decides what to do.
		Health: health.Config{Interval: 250 * time.Millisecond, Timeout: 2 * time.Second},
		// Elastic session: a death verdict opens a one-minute rejoin
		// barrier (coordinator-governed) instead of killing the run;
		// this process tolerates up to 2 repairs.
		Elastic: elastic.Config{Enable: true, RejoinWindow: time.Minute, MaxRejoins: 2},
		// A replacement's handshake also waits out the survivors' death
		// verdict, hence more than the 30 s default.
		Timeout: 60 * time.Second,
	}

	// A replacement re-enters through the rejoin barrier instead of the
	// fresh rendezvous, and restores the donor's snapshot before Run —
	// the facade path is the same from there on.
	var sess *cluster.Session
	var restore *elastic.Snapshot
	var err error
	if *rejoin {
		if sess, restore, err = cluster.Rejoin(cfg); err != nil {
			log.Fatalf("rejoin: %v", err)
		}
		log.Printf("rank %d rejoined at generation %d, resuming from step %d",
			sess.Rank(), sess.Generation(), restore.Step)
	} else if sess, err = cluster.Join(cfg); err != nil {
		log.Fatalf("join: %v", err)
	}

	trainer, err := lpsgd.NewTrainer(lpsgd.MLP(64, 48, 10),
		lpsgd.WithClusterSession(sess),
		lpsgd.WithHealthHandler(func(err error) {
			log.Printf("health verdict: %v — aborting this rank's exchange", err)
		}),
		lpsgd.WithBatchSize(96),
		lpsgd.WithEpochs(8),
		lpsgd.WithLearningRate(0.1),
		lpsgd.WithSeed(3),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer trainer.Close()
	if restore != nil {
		if err := trainer.Restore(restore); err != nil {
			log.Fatal(err)
		}
	}

	policy := trainer.Policy().Name()
	fmt.Printf("rank %d/%d training with negotiated policy %s\n",
		trainer.Rank(), trainer.World(), policy)

	h, err := trainer.Run(train, test)
	var dead health.ErrPeerDead
	if errors.As(err, &dead) {
		// With elasticity on, landing here means the repair failed too:
		// the rejoin window closed without a replacement (or the budget
		// is spent). Every surviving rank gets the same verdict.
		log.Fatalf("rank %d/%d aborted: rank %d died (last heard %s ago) and no replacement arrived; restart the cluster",
			trainer.Rank(), trainer.World(), dead.Rank,
			time.Since(dead.LastSeen).Round(time.Millisecond))
	}
	if err != nil {
		log.Fatal(err)
	}
	// The health plane's heartbeats double as straggler telemetry: every
	// rank knows which peer gated the synchronous barrier.
	if s := trainer.StepStats(); s.Slowest >= 0 {
		fmt.Printf("rank %d/%d: slowest rank last step was %d (compute %v, exchange %v)\n",
			trainer.Rank(), trainer.World(), s.Slowest,
			s.Compute[s.Slowest].Round(time.Microsecond),
			s.Exchange[s.Slowest].Round(time.Microsecond))
	}
	fmt.Printf("rank %d/%d: final accuracy %.2f%% over %s (%.1f kB on the wire from this rank)\n",
		trainer.Rank(), trainer.World(), 100*h.FinalAccuracy, policy,
		float64(h.TotalWireBytes)/1e3)
}
