// Package elastic makes a synchronous training cluster survivable: it
// defines the versioned session-state snapshot a replacement rank
// needs to take over a dead rank's slot mid-run, and the contract
// (Rejoiner) through which the training engine, the cluster runtime
// and the snapshot mechanics cooperate without import cycles.
//
// PR 4's health plane turned a rank death into a prompt coordinated
// abort — every survivor unblocks with the same typed
// health.ErrPeerDead — but the whole cluster still died with one
// process. Elastic sessions make that verdict recoverable: survivors
// quiesce at the step barrier their abort unwound to, the coordinator
// re-opens the rendezvous for one rejoin round (rendezvous
// ProtocolVersion 4 accepts `rejoin` hellos), a replacement process
// claims the dead rank's slot, the mesh and control links are
// re-established, a donor rank streams a Snapshot to every rank whose
// state is behind, and training resumes.
//
// # Exact resume
//
// The headline guarantee is bit-identical digests versus an
// uninterrupted run of the same seed and policy. Three properties make
// that possible:
//
//   - Replicated state is replicated. Weights, momentum velocity, the
//     step/epoch/batch counters and the epoch's data order are
//     identical on every rank by the synchronous-SGD invariant, so any
//     survivor can donate them. The Snapshot carries them all; the
//     data-shard cursor (Epoch, Batch) plus ShuffleState pin the exact
//     position in the epoch's batch permutation.
//   - Per-rank stochastic streams are step-keyed, not cumulative. In
//     an elastic session the aggregation layer reseeds every
//     stochastic encoder from (seed, rank, tensor, chunk, step) at
//     each step barrier (comm.Collective.BeginStep), under either
//     schedule, so a
//     replacement reconstructs exactly the stream the dead rank would
//     have used, and a survivor whose aborted half-step consumed draws
//     simply re-enters the step. No RNG bytes need to cross the wire —
//     the snapshot's counters are the stream state. (Non-elastic runs
//     keep the paper's original cumulative streams; enabling
//     elasticity is the one switch that changes, reproducibly, which
//     random draws a quantised run sees.)
//   - Survivors can be at most one step apart (a synchronous exchange
//     cannot complete anywhere until every rank contributed), so the
//     donor — any rank holding the maximum completed step — defines
//     the resume point and everyone behind installs its snapshot.
//
// Error-feedback codecs (1bitSGD, top-k) carry data-dependent
// residuals that die with the process; a rejoin under such a policy
// still converges — the residuals reset to zero on every rank at the
// rejoin barrier, keeping replicas in lockstep — but the run is no
// longer bit-identical to an uninterrupted one. Exact resume is
// guaranteed for policies whose codecs are residual-free (32bit and
// the QSGD family).
package elastic

import (
	"time"

	"repro/comm"
	"repro/health"
)

// DefaultRejoinWindow bounds how long the cluster holds the rejoin
// barrier open for a replacement before giving up and surfacing the
// original death verdict.
const DefaultRejoinWindow = 60 * time.Second

// DefaultMaxRejoins is the per-process rejoin budget when Config leaves
// it zero: how many rejoin rounds one trainer tolerates before a
// further death is fatal.
const DefaultMaxRejoins = 3

// Config tunes elastic sessions. Like the health plane's settings, the
// coordinator's values govern the whole cluster: whether elasticity is
// on at all, and how long the rejoin window stays open, ride in the
// rendezvous welcome so every rank holds the same policy. MaxRejoins
// is local to each process.
type Config struct {
	// Enable turns elastic sessions on. Requires the health plane: the
	// failure detector's verdict is what triggers a rejoin round.
	Enable bool
	// RejoinWindow bounds one rejoin round — from the death verdict to
	// full re-membership, state transfer included (default
	// DefaultRejoinWindow). If the window expires before a replacement
	// claims the dead slot, the original verdict stands and the
	// survivors fail as PR 4's abort protocol always did.
	RejoinWindow time.Duration
	// MaxRejoins caps how many rejoin rounds this process participates
	// in before a further death verdict is surfaced instead of repaired
	// (default DefaultMaxRejoins). Negative disables the cap.
	MaxRejoins int
}

// Resolved returns the config with defaults filled in. The window is
// rounded to whole milliseconds — the granularity it travels at in the
// rendezvous welcome.
func (c Config) Resolved() Config {
	if !c.Enable {
		return Config{MaxRejoins: c.MaxRejoins}
	}
	if c.RejoinWindow <= 0 {
		c.RejoinWindow = DefaultRejoinWindow
	}
	if c.RejoinWindow = c.RejoinWindow.Round(time.Millisecond); c.RejoinWindow < time.Millisecond {
		c.RejoinWindow = time.Millisecond
	}
	if c.MaxRejoins == 0 {
		c.MaxRejoins = DefaultMaxRejoins
	}
	return c
}

// LocalState is what one rank brings to a rejoin round: its completed
// step count and the callbacks the protocol uses to move state. The
// trainer supplies it; the cluster runtime consumes it.
type LocalState struct {
	// Step is the number of synchronous steps this rank has fully
	// applied. A replacement that holds no state reports -1.
	Step int64
	// Snapshot captures the local session state. The protocol invokes
	// it on the donor — the rank whose Step is the resume point — after
	// the new mesh is up.
	Snapshot func() (*Snapshot, error)
	// Install replaces the local session state with a received
	// snapshot. The protocol invokes it on every rank whose Step is
	// behind the resume point, the replacement included.
	Install func(*Snapshot) error
}

// Outcome is a successful rejoin round: the rebuilt transport plane
// and where training resumes.
type Outcome struct {
	// Fabric is the re-established data mesh for this rank.
	Fabric *comm.RemoteFabric
	// Monitor is the re-established health plane watching the new
	// mesh, already started, with its verdict wired into Fabric.Abort.
	Monitor *health.Monitor
	// Generation counts completed rejoin rounds of the session, 1-based
	// after the first repair.
	Generation int
	// ResumeStep is the agreed global step count training resumes
	// after: the maximum completed step any survivor reported.
	ResumeStep int64
	// Installed is the snapshot this rank received and installed, nil
	// when the local state was already at ResumeStep (donors and
	// in-sync survivors).
	Installed *Snapshot
}

// Rejoiner repairs a training session after a peer-death verdict. The
// cluster session implements it (rendezvous ProtocolVersion 4); the
// trainer calls it when Config.Enable allowed the verdict to be
// treated as recoverable. Rejoin blocks for up to the session's rejoin
// window and returns the rebuilt plane, or an error if the world could
// not be made whole — in which case the caller surfaces the original
// verdict.
type Rejoiner interface {
	Rejoin(verdict error, local LocalState) (*Outcome, error)
}
