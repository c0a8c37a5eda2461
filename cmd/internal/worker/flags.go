package worker

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/cluster"
	"repro/elastic"
	"repro/health"
	"repro/quant"
)

// Flags is the training configuration every training process declares:
// lpsgd-train, lpsgd-worker and the ranks lpsgd-train -cluster forks.
// Every rank of a cluster must run with the same values, save for the
// per-process -metrics-addr, -trace-out and -save.
type Flags struct {
	Task         string
	Policy       string
	Epochs       int
	Batch        int
	LR           float64
	Seed         uint64
	NCCL         bool
	TrainSamples int
	TestSamples  int
	Save         string
	Load         string

	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration
	StepDeadline     time.Duration
	RejoinWindow     time.Duration
	MaxRejoins       int

	MetricsAddr    string
	TraceOut       string
	TelemetryEvery int
}

// Register declares the training flags on fs, bound to f.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Task, "task", "image", "task: image or sequence")
	fs.StringVar(&f.Policy, "policy", "", "precision policy (quant.ParsePolicy grammar; a bare codec name is a policy), e.g. qsgd4b512;minfrac=0.95;*.b=32bit. Empty means 32bit in one process and, on a rank, no preference ahead of -accept")
	fs.IntVar(&f.Epochs, "epochs", 12, "training epochs")
	fs.IntVar(&f.Batch, "batch", 64, "global minibatch size, sharded over the workers")
	fs.Float64Var(&f.LR, "lr", 0.05, "learning rate")
	fs.Uint64Var(&f.Seed, "seed", 17, "random seed")
	fs.BoolVar(&f.NCCL, "nccl", false, "use the NCCL ring instead of MPI reduce-and-broadcast")
	fs.IntVar(&f.TrainSamples, "train-samples", 768, "training set size")
	fs.IntVar(&f.TestSamples, "test-samples", 384, "test set size")
	fs.StringVar(&f.Save, "save", "", "write a checkpoint of the trained model to this file")
	fs.StringVar(&f.Load, "load", "", "warm-start from this nn checkpoint before training (the same file on every rank)")

	fs.DurationVar(&f.Heartbeat, "heartbeat", health.DefaultInterval, "cluster health plane: heartbeat interval; the coordinator's value governs the session, 0 on rank 0 disables failure detection")
	fs.DurationVar(&f.HeartbeatTimeout, "heartbeat-timeout", 0, "cluster health plane: silence after which a peer is declared dead (0 = 8x the heartbeat interval)")
	fs.DurationVar(&f.StepDeadline, "step-deadline", 0, "abort if one synchronous step (compute and exchange) exceeds this wall time (0 = unbounded)")
	fs.DurationVar(&f.RejoinWindow, "rejoin-window", 0, "elastic sessions: after a rank death, hold a rejoin barrier open this long for a replacement; the coordinator's value governs the session, 0 disables elasticity")
	fs.IntVar(&f.MaxRejoins, "max-rejoins", 0, "elastic sessions: rank deaths repaired before one is fatal (0 = 3, negative = unlimited)")

	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /trace on this address, plus /cluster/metrics and /cluster/status with telemetry on (per process)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "append the step-phase trace as JSONL to this file, the input of lpsgd-trace (per process)")
	fs.IntVar(&f.TelemetryEvery, "telemetry-every", 0, "sample convergence telemetry (loss, gradient norms, live quantisation error) every N steps and share it with every rank over the control plane (0 = off)")
}

// validate rejects training flags no process can run with.
func (f *Flags) validate() error {
	if f.Heartbeat < 0 || f.HeartbeatTimeout < 0 || f.StepDeadline < 0 || f.RejoinWindow < 0 {
		return errors.New("-heartbeat, -heartbeat-timeout, -step-deadline and -rejoin-window must not be negative")
	}
	if f.TelemetryEvery < 0 {
		return errors.New("-telemetry-every must not be negative")
	}
	if f.Policy != "" {
		if _, err := quant.ParsePolicy(f.Policy); err != nil {
			return fmt.Errorf("-policy: %w", err)
		}
	}
	return nil
}

// Args renders f as command-line arguments for another process, every
// training flag except those named in omit.
func (f *Flags) Args(omit ...string) []string {
	// The set's values point into g, so copying f into g after Register
	// makes the set read f's values.
	var g Flags
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	g.Register(fs)
	g = *f
	var args []string
	fs.VisitAll(func(fl *flag.Flag) {
		if !slices.Contains(omit, fl.Name) {
			args = append(args, "-"+fl.Name+"="+fl.Value.String())
		}
	})
	return args
}

// Membership is a rank's place in a cluster.
type Membership struct {
	Coordinator string
	Rank        int
	World       int
	Accept      string
	JoinTimeout time.Duration
	Rejoin      bool
}

// Register declares the membership flags on fs, bound to m.
func (m *Membership) Register(fs *flag.FlagSet) {
	fs.StringVar(&m.Coordinator, "coordinator", "127.0.0.1:7070", "rendezvous address (rank 0 listens, the others dial)")
	fs.IntVar(&m.Rank, "rank", 0, "this process's rank in [0, world)")
	fs.IntVar(&m.World, "world", 2, "number of ranks")
	fs.StringVar(&m.Accept, "accept", "32bit", "comma-separated policy strings this rank accepts (quant.ParsePolicy grammar)")
	fs.DurationVar(&m.JoinTimeout, "join-timeout", 30*time.Second, "rendezvous handshake timeout; with -rejoin it is added to the heartbeat timeout and the rejoin window")
	fs.BoolVar(&m.Rejoin, "rejoin", false, "join as the replacement for a dead rank of a running elastic session")
}

// Config is one rank: the training flags and its membership.
type Config struct {
	Flags
	Membership
}

// Register declares every flag of a rank on fs, bound to c.
func (c *Config) Register(fs *flag.FlagSet) {
	c.Flags.Register(fs)
	c.Membership.Register(fs)
}

// clusterConfig validates c and builds the rendezvous configuration
// from it, before anything opens a file or a socket.
func (c *Config) clusterConfig() (cluster.Config, error) {
	if err := c.Flags.validate(); err != nil {
		return cluster.Config{}, err
	}
	if c.Rejoin && c.Load != "" {
		return cluster.Config{}, errors.New("-rejoin receives its state from the session snapshot; -load would overwrite it")
	}
	var accept []string
	if c.Policy != "" {
		accept = append(accept, c.Policy)
	}
	for _, name := range strings.Split(c.Accept, ",") {
		if name = strings.TrimSpace(name); name != "" {
			accept = append(accept, name)
		}
	}
	cfg := cluster.Config{
		Addr: c.Coordinator, Rank: c.Rank, World: c.World,
		Accept:  accept,
		Timeout: c.JoinTimeout,
		Health: health.Config{
			Interval: c.Heartbeat,
			Timeout:  c.HeartbeatTimeout,
			Disable:  c.Heartbeat == 0,
		},
		Elastic: elastic.Config{
			Enable:       c.RejoinWindow > 0,
			RejoinWindow: c.RejoinWindow,
			MaxRejoins:   c.MaxRejoins,
		},
	}
	if c.Rejoin {
		// A replacement's whole attempt: the barrier only opens once the
		// survivors reach their death verdict, up to the heartbeat
		// timeout, then holds for the rejoin window; -join-timeout is the
		// handshake's own allowance on top.
		el := elastic.Config{Enable: true, RejoinWindow: c.RejoinWindow}.Resolved()
		cfg.Timeout = cfg.Health.Resolved().Timeout + el.RejoinWindow + c.JoinTimeout
	}
	return cfg, cfg.Validate()
}
