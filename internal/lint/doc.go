// Package lint is the repository's static-analysis suite: five
// analyzers that turn invariants which previously lived in doc
// comments and after-the-fact regression tests into compile-time
// checks, run over the whole module by cmd/lpsgd-vet via
// `go vet -vettool`.
//
// The analyzers and the PRs whose invariants they encode:
//
//   - wirebound: outside internal/wire, which checks every length of
//     every binary format against its cap, no allocation may be sized
//     by a raw encoding/binary read (resolved by type, so an import's
//     name does not matter), and sim's JSON scenario decoder must
//     reject unknown fields (PR 6).
//
//   - simclock: package sim must not touch wall time or global
//     randomness; its golden FNV-1a trace hashes are reproducible only
//     on the seeded logical clock (PR 6).
//
//   - commerr: comm.Transport.Send/Flush/RecvInto (and RemoteFabric.Recv),
//     the framed encoders' EncodeTo, and health.Monitor control-plane
//     writes return errors for a reason (PR 2 converted the
//     shutdown-race panics); results must not be discarded or
//     blank-assigned.
//
//   - golifecycle: `go func` literals in comm, health, cluster and
//     parallel must show a shutdown path — a done/ctx channel receive,
//     a WaitGroup Add/Done bracket, or a result channel the launcher
//     receives from (the property the goroutine-leak-counting tests in
//     PR 4 assert dynamically).
//
//   - obsinert: an instrumentation site costs nothing when the
//     observability plane is off — arguments to obs.Tracer.Record and
//     the metric handles build no strings per call, and registry
//     series names are constants.
//
// # Escape hatch
//
// A finding that is deliberate is annotated in place:
//
//	m.write(l, bye) //lint:allow commerr parting bye is best-effort
//
// The directive suppresses exactly one diagnostic of the named
// analyzer on its line (or the line below, for a standalone comment)
// and the reason is mandatory. Unknown analyzer names, missing reasons
// and directives that suppress nothing are themselves diagnostics, so
// the allow inventory stays honest: `grep -rn lint:allow` lists every
// hole in the invariants with its justification.
//
// # Running
//
//	make lint            # builds bin/lpsgd-vet and runs it over ./...
//	go build -o bin/lpsgd-vet ./cmd/lpsgd-vet
//	go vet -vettool=bin/lpsgd-vet ./...
//	go vet -vettool=bin/lpsgd-vet -simclock ./sim   # one analyzer
//
// The suite runs clean on the tree by construction: every finding is
// either fixed or carries a reasoned allow, and the CI lint lane keeps
// it that way.
package lint
