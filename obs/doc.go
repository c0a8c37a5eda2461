// Package obs is the training stack's observability plane: a
// dependency-free metrics registry, a per-step phase tracer, and an
// HTTP surface that exposes both — the live counterpart of the
// discrete-event simulator's timeline (repro/sim).
//
// # Metrics
//
// Registry holds counters, gauges, fixed-bucket histograms and
// callback-backed gauges, all int64-valued and atomic. Handles are
// obtained once at construction time and updated on the hot path with
// plain atomic adds — no locks, no allocation, no formatting. Every
// handle method (and every Tracer method) is nil-safe: instrumented
// code calls them unconditionally, and a nil registry or tracer makes
// the whole plane a no-op, which is what the digest-parity and TCP
// byte-parity tests pin down. WriteText renders the Prometheus text
// exposition format with stable ordering, so the output is
// golden-testable.
//
// # Tracing
//
// Tracer records Spans — (rank, step, phase, start, duration, bytes,
// peer, op) with integer-nanosecond timestamps — into a bounded
// in-memory ring and, optionally, a JSONL sink. The phase vocabulary
// is deliberately the simulator's (see repro/sim: its event kinds
// "compute"/"quant"/"xfer"/"barrier" and the RankSummary phase totals):
//
//	compute   forward+backward of one rank's shard
//	quantise  gradient codec Encode on the sending side
//	encode    full-precision packing (a 32bit tensor's byte view)
//	transfer  bytes moving through the fabric (Send/Recv wall time)
//	decode    codec Decode / frame decode on the receiving side
//	barrier   the whole blocking exchange of one rank (the collective
//	          is the step barrier; its fine-grained quantise/encode/
//	          transfer/decode spans break it down, and the remainder
//	          is time spent waiting for stragglers)
//	control   everything off the data path: rendezvous, rejoin,
//	          snapshot transfer, heartbeats
//
// That shared vocabulary is what lets cmd/lpsgd-trace convert a live
// trace into a sim-comparable timeline and diff the two
// (sim.ReadLiveTrace / sim.BuildOverlay).
//
// # Serving
//
// Serve binds an HTTP listener with /metrics (Prometheus text),
// /debug/vars (expvar), /debug/pprof/* (runtime profiles) and /trace
// (the tracer ring as a JSONL download — by default the newest
// DefaultTraceLimit spans; ?limit=N narrows or widens the window and
// ?limit=0 downloads the whole ring). Its one goroutine is joined by
// Close — the golifecycle contract the lint suite enforces for this
// package.
//
// Callers with extra surfaces mount them through Serve's variadic
// Endpoint arguments; cluster.TelemetryHub uses this to serve its
// aggregated /cluster/metrics and /cluster/status beside the
// per-process endpoints (see cmd/lpsgd-top for the dashboard that
// consumes them).
package obs
