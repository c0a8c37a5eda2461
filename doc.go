// Package repro is a pure-Go reproduction of "Synchronous Multi-GPU
// Deep Learning with Low-Precision Communication: An Experimental
// Study" (Grubic, Tam, Alistarh, Zhang; EDBT 2018), grown into an
// importable library.
//
// The public surface is the lpsgd facade (functional-options trainer
// construction) over the public packages: quant (the low-precision
// gradient codecs — the paper's primary contribution — plus the
// self-describing framed wire format, the Parse name grammar, and the
// precision-policy layer: quant.Policy/ParsePolicy assign codecs per
// tensor through one round-tripping string such as
// "qsgd4b512;minfrac=0.99;embedding=topk0.001;*.bias=32bit", and
// quant.NewPlan evaluates a policy against a model's tensor inventory
// as the single source of truth for per-tensor codecs, wire bytes and
// kernel pricing), comm/parallel (the synchronous data-parallel engine
// with MPI-style and NCCL-style aggregation — two schedules over one
// collective, both carrying the policy's codecs — over in-process,
// loopback-TCP or remote mesh fabrics), cluster (the multi-process
// runtime: TCP rendezvous, per-session policy negotiation with a 32bit
// floor, and mesh establishment across machine boundaries — launched
// via cmd/lpsgd-worker or lpsgd.WithCluster), health (the cluster's
// fault-handling plane: per-peer heartbeat control links, a
// phi-or-deadline failure detector, a coordinated abort that unblocks
// every survivor with the same typed health.ErrPeerDead when a rank
// dies mid-epoch, and straggler telemetry piggybacked on the
// heartbeats — tuned via lpsgd.WithHeartbeat/WithStepDeadline and
// surfaced through Trainer.StepStats and lpsgd-worker's documented
// exit codes), elastic (elastic sessions on top of the health plane:
// a versioned session-state snapshot — weights, optimiser momentum,
// step and data cursors — and the rendezvous ProtocolVersion 4 rejoin
// protocol, through which a replacement process takes a dead rank's
// slot mid-run via donor state transfer and training resumes with
// digests bit-identical to an uninterrupted run under residual-free
// policies; enabled by lpsgd.WithElastic and lpsgd-worker -rejoin,
// with Trainer.SaveState/LoadState exposing the same snapshot for
// planned, exact resumption), sim (the performance laboratory: the
// calibrated single-exchange cost model of the paper's machines,
// framing overhead included, plus a deterministic discrete-event
// cluster simulator — JSON scenarios with heterogeneous topologies,
// straggler/jitter/failure workload generators and trace replay, run
// on a seeded logical clock at up to thousands of ranks, with exchange
// volumes cross-validated byte-for-byte against live TCP and outputs
// locked by golden datasets under sim/testdata; driven from the
// command line via lpsgd-sim -scenario), obs (the observability plane:
// a dependency-free metrics registry with nil-safe handles and a
// step-phase span tracer that shares the simulator's phase vocabulary
// — compute, quantise, encode, transfer, decode, barrier, control —
// wired in via lpsgd.WithMetrics/WithTracer, served over HTTP by
// obs.Serve as /metrics, /debug/vars, /debug/pprof and /trace, and
// provably inert when absent: digest-parity and byte-parity tests plus
// a paired step benchmark hold the enabled plane under 2% overhead;
// cmd/lpsgd-trace diffs a captured trace against a simulated scenario,
// and the telemetry plane on top — lpsgd.WithTelemetry samples step
// loss, gradient norms and live quantisation RMSE/compression, ships
// the snapshots over the heartbeat control links, and
// cluster.TelemetryHub aggregates them into /cluster/metrics and
// /cluster/status for the cmd/lpsgd-top terminal dashboard),
// and nn/tensor/data/rng (the deep-learning substrate). The experiment machinery stays under
// internal/: workload (machine and network calibration data), harness
// (one runner per table and figure) and lint (the project's static
// analyzers, run as a vet tool via cmd/lpsgd-vet to machine-enforce
// the wire-bound, sim-determinism, transport-error, goroutine-
// lifecycle and observability-inertness contracts). See README.md for
// a quickstart and a tour;
// the top-level bench_test.go regenerates every figure as a Go
// benchmark.
package repro
