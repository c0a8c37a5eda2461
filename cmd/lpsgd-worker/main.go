// Command lpsgd-worker is one rank of a multi-process training
// cluster: it joins the rendezvous, negotiates a precision policy with
// its peers, trains its shard of every batch over the dialled TCP
// mesh, and reports a digest of the final model so the launcher can
// verify that all ranks converged to bit-identical state.
//
// Rank 0 is the coordinator — it listens on -coordinator and prints
// the bound address (useful with port 0) before waiting for the other
// ranks:
//
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 0 -world 3 -accept qsgd4b512,1bit
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 1 -world 3 -accept qsgd4b512
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 2 -world 3 -accept qsgd4b512,topk0.01
//
// -accept takes full policy strings (quant.ParsePolicy grammar), so
// per-layer mixed-precision schemes negotiate like codecs do; -policy
// is shorthand for advertising one preferred policy ahead of the
// -accept list:
//
//	lpsgd-worker ... -policy "qsgd4b512;embedding=topk0.01" -accept qsgd4b512
//
// Every rank must be launched with the same -task, -seed, -batch,
// -epochs, -lr and -nccl (the NCCL ring instead of MPI
// reduce-and-broadcast), or the replicas will not stay bit-identical.
// The training flags are lpsgd-train's, declared once in
// cmd/internal/worker, and the ranks lpsgd-train -cluster forks run
// this same code path. -save writes the trained model as an nn
// checkpoint; -load warm-starts from one (identical file on every rank
// — loading different weights per rank would break the replica
// invariant before the first exchange; a shape-mismatched checkpoint
// is rejected with a named error). The final stdout line is
// machine-readable (codec= carries the negotiated policy string):
//
//	rank=1 world=3 codec=qsgd4b512 final_loss=0.1234 final_acc=0.8750 model=<sha256>
//
// # Fault handling
//
// A health plane runs beside the mesh (see repro/health): heartbeats
// every -heartbeat over dedicated control links, a phi-or-deadline
// failure detector, and a coordinated abort so that when any rank dies
// every survivor unblocks with the same verdict instead of hanging.
// The coordinator's -heartbeat/-heartbeat-timeout govern the whole
// session; -heartbeat 0 on rank 0 turns the plane off. -step-deadline
// additionally bounds one synchronous step's wall time.
//
// # Elastic sessions
//
// With -rejoin-window set on the coordinator, a death verdict becomes
// recoverable (see repro/elastic): survivors quiesce at the next step
// barrier and hold a rejoin barrier open for the window, waiting for a
// replacement to claim the dead rank's slot. A supervisor reacting to
// the death relaunches the rank with the same flags plus -rejoin:
//
//	lpsgd-worker -coordinator 127.0.0.1:7070 -rank 2 -world 3 -rejoin ...
//
// The replacement waits at most the resolved heartbeat timeout plus
// the resolved rejoin window plus -join-timeout, receives the full
// session state (weights, momentum, step and data cursors) from a
// surviving donor, and training resumes; under residual-free policies
// (32bit, the QSGD family) the final digests are bit-identical to a
// run that never lost the rank. -max-rejoins caps how many repairs one
// process tolerates.
//
// # Observability
//
// -metrics-addr serves this rank's observability plane over HTTP
// (/metrics, /debug/vars, /debug/pprof, /trace) and -trace-out appends
// every step-phase span to a file for cmd/lpsgd-trace; both are per
// process. -telemetry-every N samples convergence telemetry every N
// steps and broadcasts it over the heartbeat control links, so every
// rank holds the whole cluster's view, served at /cluster/metrics and
// /cluster/status beside the per-process endpoints and watchable with
// cmd/lpsgd-top.
//
// Exit codes are distinct so an external supervisor can decide
// restart-vs-fail without parsing stderr:
//
//	0  success — trained, digest printed
//	1  internal failure (training error, checkpoint I/O)
//	2  usage or configuration error: bad flags, unknown task, a
//	   -policy or -accept that does not parse, -rank outside -world,
//	   -rejoin-window with -heartbeat 0 on rank 0 (all reported
//	   before any socket opens), or an unloadable or mismatched -load
//	   checkpoint
//	3  rendezvous failure (cannot join, rejected hello, negotiation)
//	4  peer-death abort (a peer was declared dead mid-run and — in an
//	   elastic session — the rejoin window closed without a
//	   replacement; restarting the whole cluster is the sensible
//	   reaction, restarting this rank alone is not)
//	5  rejoin failure (-rejoin could not re-enter the session: the
//	   window expired before the barrier opened, the slot was taken,
//	   or no live session exists; relaunching with -rejoin is only
//	   useful while survivors are still holding the barrier)
package main

import (
	"os"

	"repro/cmd/internal/worker"
)

func main() {
	os.Exit(worker.Main("lpsgd-worker", os.Args[1:]))
}
