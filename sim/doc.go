// Package sim is the repository's performance laboratory: a calibrated
// cost model for single gradient exchanges and a deterministic
// discrete-event simulator for whole training sessions at cluster
// scale.
//
// It has two altitudes:
//
//   - Run prices one training iteration of one configuration —
//     (network, machine, primitive, precision policy, GPU count) — and
//     derives the quantities the paper's performance figures report:
//     samples/second (Figures 10–11), time per epoch (Figures 6–9),
//     scalability (Figures 12–15) and the cost/extrapolation analyses
//     (Figure 16). This layer is calibrated, not fabricated: compute
//     time is anchored to the paper's measured single-GPU throughput,
//     communication prices the exact wire bytes the quant codecs
//     produce through fitted link models, and quantisation kernels
//     carry per-element plus per-group costs. The claims harness
//     (internal/harness/claims.go) records how the simulated tables
//     compare with the paper's measured ones, row by row.
//
//   - RunScenario simulates a full training session as a DAG of
//     per-rank compute, quantise-kernel and link-transfer events on a
//     seeded logical clock (no wall time anywhere), following the
//     synchronous-SGD step DAG of Shi et al. It scales to thousands of
//     ranks — far beyond the three-process e2e tests — and models what
//     single-exchange pricing cannot: heterogeneous topologies
//     (intra-host vs inter-host links, oversubscribed uplinks, per-pair
//     overrides), seeded straggler distributions, per-step arrival
//     jitter, trace replay, and failure injection that walks the
//     health/elastic subsystems' detect → abort → rejoin timeline
//     analytically.
//
// Both layers share one byte-accounting spine: exchange volumes come
// from comm.WireBytes — the function the live collective's byte
// counters are tested against, for the direct schedule and the ring
// alike, quantised or not — so a simulated scenario's exchange bytes
// equal a live TCP run's measured bytes exactly (asserted in this
// package's cross-validation tests). Time is priced separately: both
// primitives' link models charge the plan's encoded model copy, the
// paper's accounting (its low-precision NCCL numbers were a simulated
// byte volume, §4.4).
//
// Scenario outputs are regression-locked by golden datasets under
// testdata/ (regenerate with `go test ./sim -run Golden -update-golden`)
// and every simulation is reproducible from its seed: same scenario,
// same seed, same event trace, same summary.
//
// The simulator's per-rank timelines and the live observability plane
// speak the same step-phase vocabulary — compute, quantise, encode,
// transfer, decode, barrier, control (obs.Phase): a live run's
// obs.Tracer labels its spans with exactly the phases the event engine
// schedules, which is what lets ReadLiveTrace aggregate a captured
// JSONL trace into a sim-comparable LiveTimeline and BuildOverlay diff
// the two (per-phase time shares plus straggler attribution —
// cmd/lpsgd-trace is the CLI). Extending one side's vocabulary means
// extending the other: a phase the tracer emits but the engine never
// schedules (or vice versa) silently drops out of the overlay.
//
// The determinism contract is machine-enforced: the simclock analyzer
// in internal/lint (run by `make lint` and the CI lint lane) rejects
// wall-clock reads (time.Now, time.Since, time.Sleep, ...) and global
// math/rand draws anywhere in this package, because either one would
// silently break seed-reproducibility and the golden trace hashes.
// Time comes from the seeded logical clock; randomness comes from
// explicitly seeded *rand.Rand values.
package sim
