// Package worker is the one training process behind lpsgd-train and
// lpsgd-worker: the flags they declare, and the run of a cluster rank
// (Run) or of a single-process study (Local), from validation to the
// exit code documented in cmd/lpsgd-worker.
package worker

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/cluster"
	"repro/data"
	"repro/elastic"
	"repro/health"
	"repro/internal/harness"
	"repro/lpsgd"
	"repro/obs"
)

const (
	exitOK         = 0
	exitInternal   = 1
	exitUsage      = 2
	exitRendezvous = 3
	exitPeerDeath  = 4
	exitRejoin     = 5
)

// exit reports a failure on stderr and returns the process's exit code.
func exit(code int, err error, stderr io.Writer) int {
	if err == nil {
		return exitOK
	}
	fmt.Fprintln(stderr, err)
	return code
}

// Hooks let a launcher that forks the other ranks itself run its own
// rank through Run.
type Hooks struct {
	// Listening runs on rank 0 once the rendezvous port is bound,
	// before it waits for the other ranks.
	Listening func(addr string) error
	// Trained runs after training and -save, before the summary line.
	Trained func(*lpsgd.Trainer, *lpsgd.History) error
}

// Main parses a rank's command line and runs it.
func Main(name string, args []string) int {
	var c Config
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	c.Register(fs)
	fs.Parse(args)
	return Run(c, Hooks{}, os.Stdout, os.Stderr)
}

// Run trains one rank of a cluster and returns its exit code. Rank 0
// prints "coordinator <addr>" on stdout once it listens; every rank
// ends stdout with the summary line
//
//	rank=1 world=3 codec=qsgd4b512 final_loss=0.1234 final_acc=0.8750 model=<sha256>
func Run(c Config, h Hooks, stdout, stderr io.Writer) int {
	code, err := c.run(h, stdout, stderr)
	return exit(code, err, stderr)
}

func (c *Config) run(h Hooks, stdout, stderr io.Writer) (int, error) {
	cfg, err := c.clusterConfig()
	if err != nil {
		return exitUsage, err
	}
	build, trainSet, testSet, p, err := c.setup(c.World, stderr)
	if err != nil {
		return exitUsage, err
	}
	defer p.close()
	cfg.Tracer = p.tracer

	sess, snap, code, err := c.join(cfg, h.Listening, stdout)
	if err != nil {
		return code, err
	}
	note := "health plane off"
	if m := sess.Monitor(); m != nil {
		note = fmt.Sprintf("heartbeat %v, timeout %v", m.Config().Interval, m.Config().Timeout)
	}
	if el := sess.Elastic(); el.Enable {
		note += fmt.Sprintf(", rejoin window %v", el.RejoinWindow)
	}
	role := "up"
	if snap != nil {
		role = fmt.Sprintf("rejoined (generation %d, resuming at step %d)", sess.Generation(), snap.Step)
	}
	fmt.Fprintf(stderr, "rank %d/%d %s, negotiated policy %s (%s)\n",
		sess.Rank(), sess.World(), role, sess.PolicyName(), note)

	opts := append(c.options(p), lpsgd.WithClusterSession(sess))
	return c.train(build, trainSet, testSet, opts, p, snap, stderr, func(tr *lpsgd.Trainer, hist *lpsgd.History, digest [sha256.Size]byte) error {
		if s := tr.StepStats(); s.Slowest >= 0 {
			fmt.Fprintf(stderr, "straggler report: rank %d gated the last step (compute %v, exchange %v)\n",
				s.Slowest, s.Compute[s.Slowest].Round(time.Microsecond), s.Exchange[s.Slowest].Round(time.Microsecond))
		}
		if h.Trained != nil {
			if err := h.Trained(tr, hist); err != nil {
				return err
			}
		}
		last := hist.Epochs[len(hist.Epochs)-1]
		fmt.Fprintf(stdout, "rank=%d world=%d codec=%s final_loss=%.4f final_acc=%.4f model=%x\n",
			sess.Rank(), sess.World(), sess.PolicyName(), last.TrainLoss, hist.FinalAccuracy, digest)
		return nil
	})
}

// join enters the session one of three ways: -rejoin claims a dead
// rank's slot in a running session; rank 0 coordinates, announcing the
// bound address (a ":0" port is only known here) before it waits for
// the others; everyone else dials a fresh rendezvous.
func (c *Config) join(cfg cluster.Config, listening func(string) error, stdout io.Writer) (*cluster.Session, *elastic.Snapshot, int, error) {
	switch {
	case c.Rejoin:
		sess, snap, err := cluster.Rejoin(cfg)
		return sess, snap, exitRejoin, err
	case c.Rank == 0:
		coord, err := cluster.NewCoordinator(cfg)
		if err != nil {
			return nil, nil, exitRendezvous, err
		}
		fmt.Fprintf(stdout, "coordinator %s\n", coord.Addr())
		if listening != nil {
			if err := listening(coord.Addr()); err != nil {
				coord.Close()
				return nil, nil, exitInternal, err
			}
		}
		sess, err := coord.Join()
		return sess, nil, exitRendezvous, err
	default:
		sess, err := cluster.Join(cfg)
		return sess, nil, exitRendezvous, err
	}
}

// Local trains in this one process over workers simulated GPUs and
// returns the exit code; trained reports the run.
func Local(f Flags, workers int, trained func(*lpsgd.Trainer, *lpsgd.History) error, stderr io.Writer) int {
	if err := f.validate(); err != nil {
		return exit(exitUsage, err, stderr)
	}
	build, trainSet, testSet, p, err := f.setup(1, stderr)
	if err != nil {
		return exit(exitUsage, err, stderr)
	}
	defer p.close()
	policy := f.Policy
	if policy == "" {
		policy = cluster.Floor
	}
	opts := append(f.options(p), lpsgd.WithPolicy(policy), lpsgd.WithWorkers(workers))
	code, err := f.train(build, trainSet, testSet, opts, p, nil, stderr, func(tr *lpsgd.Trainer, hist *lpsgd.History, _ [sha256.Size]byte) error {
		return trained(tr, hist)
	})
	return exit(code, err, stderr)
}

// setup builds the task and opens the observability plane. Every rank
// must build exactly the same model and datasets, so they come from the
// one harness helper; world sizes the telemetry hub, which aggregates
// every rank's snapshots into the /cluster endpoints.
func (f *Flags) setup(world int, stderr io.Writer) (lpsgd.BuildFunc, *data.Dataset, *data.Dataset, *plane, error) {
	build, trainSet, testSet, err := harness.Task(f.Task, f.TrainSamples, f.TestSamples, f.Seed)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	p := &plane{}
	if f.TelemetryEvery > 0 {
		// The policy is stamped once the trainer knows it.
		p.hub = cluster.NewTelemetryHub(world, "")
	}
	if f.MetricsAddr == "" && f.TraceOut == "" {
		return build, trainSet, testSet, p, nil
	}
	p.reg = obs.NewRegistry()
	// The ring is sized for the /trace endpoint; -trace-out streams
	// every span regardless of its capacity.
	p.tracer = obs.NewTracer(1 << 16)
	if f.TraceOut != "" {
		out, err := os.Create(f.TraceOut)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		p.tracer.SetSink(out)
	}
	if f.MetricsAddr != "" {
		var extra []obs.Endpoint
		if p.hub != nil {
			extra = p.hub.Endpoints()
		}
		if p.srv, err = obs.Serve(f.MetricsAddr, p.reg, p.tracer, extra...); err != nil {
			p.tracer.Close()
			return nil, nil, nil, nil, err
		}
		fmt.Fprintf(stderr, "observability plane on http://%s (/metrics, /debug/pprof, /trace)\n", p.srv.Addr())
	}
	return build, trainSet, testSet, p, nil
}

// plane is a process's observability plane: metrics registry and span
// tracer (nil unless -metrics-addr or -trace-out is set) and telemetry
// hub (nil without -telemetry-every).
type plane struct {
	reg    *obs.Registry
	tracer *obs.Tracer
	hub    *cluster.TelemetryHub
	srv    *obs.Server
}

// close flushes -trace-out and stops the HTTP server.
func (p *plane) close() {
	p.tracer.Close()
	if p.srv != nil {
		p.srv.Close()
	}
}

// options are the trainer options every process derives from its
// flags; the caller adds the membership or the worker count.
func (f *Flags) options(p *plane) []lpsgd.Option {
	primitive := lpsgd.MPI
	if f.NCCL {
		primitive = lpsgd.NCCL
	}
	opts := []lpsgd.Option{
		lpsgd.WithPrimitive(primitive),
		lpsgd.WithBatchSize(f.Batch),
		lpsgd.WithEpochs(f.Epochs),
		lpsgd.WithLearningRate(float32(f.LR)),
		lpsgd.WithSeed(f.Seed),
		lpsgd.WithStepDeadline(f.StepDeadline),
		lpsgd.WithMetrics(p.reg),
		lpsgd.WithTracer(p.tracer),
	}
	if p.hub != nil {
		opts = append(opts, lpsgd.WithTelemetry(f.TelemetryEvery), lpsgd.WithTelemetryObserver(p.hub.Observe))
	}
	return opts
}

// train builds the trainer, installs a rejoin snapshot or the -load
// checkpoint, trains, writes -save and hands the run and the digest of
// the trained model to report. The trainer's Close, after report,
// sends the health plane's bye, so peers still shutting down see a
// departure, not a death.
func (f *Flags) train(build lpsgd.BuildFunc, trainSet, testSet *data.Dataset, opts []lpsgd.Option, p *plane, snap *elastic.Snapshot, stderr io.Writer,
	report func(*lpsgd.Trainer, *lpsgd.History, [sha256.Size]byte) error) (int, error) {
	tr, err := lpsgd.NewTrainer(build, opts...)
	if err != nil {
		return exitInternal, err
	}
	defer tr.Close()
	if p.hub != nil {
		p.hub.SetPolicy(tr.Policy().Name())
	}
	if snap != nil {
		if err := tr.Restore(snap); err != nil {
			return exitInternal, err
		}
	}
	if f.Load != "" {
		ckpt, err := os.ReadFile(f.Load)
		if err == nil {
			err = tr.LoadCheckpoint(bytes.NewReader(ckpt))
		}
		if err != nil {
			return exitUsage, fmt.Errorf("load checkpoint: %w", err)
		}
		fmt.Fprintf(stderr, "warm-started from %s\n", f.Load)
	}
	hist, err := tr.Run(trainSet, testSet)
	if err != nil {
		// A health-plane death verdict is the restart-the-cluster code.
		if errors.As(err, new(health.ErrPeerDead)) {
			return exitPeerDeath, err
		}
		return exitInternal, err
	}
	var ckpt bytes.Buffer
	if err := tr.SaveCheckpoint(&ckpt); err != nil {
		return exitInternal, err
	}
	if f.Save != "" {
		if err := os.WriteFile(f.Save, ckpt.Bytes(), 0o644); err != nil {
			return exitInternal, err
		}
		fmt.Fprintf(stderr, "checkpoint written to %s\n", f.Save)
	}
	if err := report(tr, hist, sha256.Sum256(ckpt.Bytes())); err != nil {
		return exitInternal, err
	}
	return exitOK, nil
}
