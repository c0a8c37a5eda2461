package parallel

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"

	"repro/elastic"
	"repro/health"
	"repro/obs"
)

// SaveCheckpoint writes the canonical replica's weights in the
// nn.Network binary checkpoint format.
func (t *Trainer) SaveCheckpoint(w io.Writer) error {
	return t.local[0].net.Save(w)
}

// LoadCheckpoint restores weights into every replica, preserving the
// synchronous-SGD invariant that all replicas are bit-identical. In a
// cluster, every rank must load the same checkpoint bytes (warm-start:
// the -load flag of the CLIs). Weights only — optimiser momentum, the
// data cursor and step counters start fresh; for a resume that is
// bit-identical to an uninterrupted run, use SaveState/LoadState.
func (t *Trainer) LoadCheckpoint(r io.Reader) error {
	if err := t.local[0].net.Load(r); err != nil {
		return err
	}
	for _, rep := range t.local[1:] {
		if err := rep.net.CopyWeightsFrom(t.local[0].net); err != nil {
			return err
		}
	}
	return nil
}

// makeSnapshot captures the full elastic session state at the current
// step barrier: weights, optimiser velocity, hyperparameters, the
// step counter and the data-shard cursor. It is the donor-side hook of
// a rejoin round and the writer behind SaveState. The trainer must be
// quiescent (between steps) when it runs.
func (t *Trainer) makeSnapshot() (*elastic.Snapshot, error) {
	snapStart := t.tracer.Now()
	t.statsMu.Lock()
	step, epoch, batch, shuf := t.stepIdx, t.curEpoch, t.lastBatch, t.epochShuffleState
	t.statsMu.Unlock()
	var params bytes.Buffer
	if err := t.local[0].net.Save(&params); err != nil {
		return nil, err
	}
	opt := t.local[0].opt
	var vel [][]float32
	for _, v := range opt.Velocity() {
		vel = append(vel, append([]float32(nil), v.Data...))
	}
	snap := &elastic.Snapshot{
		Seed:         t.cfg.Seed,
		World:        t.cfg.Workers,
		Policy:       t.plan.Policy.Name(),
		Step:         step,
		Epoch:        epoch,
		Batch:        batch,
		ShuffleState: shuf,
		Momentum:     opt.Momentum(),
		WeightDecay:  opt.WeightDecay(),
		Params:       params.Bytes(),
		Velocity:     vel,
	}
	t.tracer.Record(t.local[0].rank, obs.PhaseControl, "snapshot", -1, int64(len(snap.Params)), snapStart, t.tracer.Now()-snapStart)
	return snap, nil
}

// installSnapshot validates a snapshot against this trainer's
// configuration and installs it: weights into every replica, velocity
// into every optimiser, the step counter, and a pending resume cursor
// the training loop consumes. It is the catch-up hook of a rejoin
// round and the reader behind LoadState/Restore.
func (t *Trainer) installSnapshot(snap *elastic.Snapshot) error {
	restoreStart := t.tracer.Now()
	cfg := t.cfg
	if snap.Seed != cfg.Seed {
		return fmt.Errorf("parallel: snapshot from seed %d cannot resume a seed-%d run (the seed keys the data order and every stochastic stream)", snap.Seed, cfg.Seed)
	}
	if snap.World != cfg.Workers {
		return fmt.Errorf("parallel: snapshot of a %d-rank world, this trainer runs %d", snap.World, cfg.Workers)
	}
	if name := t.plan.Policy.Name(); snap.Policy != name {
		return fmt.Errorf("parallel: snapshot trained under policy %q, this trainer runs %q", snap.Policy, name)
	}
	if m := t.local[0].opt.Momentum(); snap.Momentum != m {
		return fmt.Errorf("parallel: snapshot momentum %v, this trainer runs %v", snap.Momentum, m)
	}
	if wd := t.local[0].opt.WeightDecay(); snap.WeightDecay != wd {
		return fmt.Errorf("parallel: snapshot weight decay %v, this trainer runs %v", snap.WeightDecay, wd)
	}
	if snap.Epoch < 0 || snap.Batch < -1 || snap.Step < 0 {
		return fmt.Errorf("parallel: snapshot cursor (epoch %d, batch %d, step %d) is invalid", snap.Epoch, snap.Batch, snap.Step)
	}
	// Weights first — the checkpoint decoder carries the full
	// name/shape validation, so a foreign snapshot fails here cleanly.
	if err := t.LoadCheckpoint(bytes.NewReader(snap.Params)); err != nil {
		return err
	}
	for _, r := range t.local {
		vel := r.opt.Velocity()
		if len(snap.Velocity) != len(vel) {
			return fmt.Errorf("parallel: snapshot carries %d velocity tensors, optimiser has %d", len(snap.Velocity), len(vel))
		}
		for i, v := range vel {
			if len(snap.Velocity[i]) != len(v.Data) {
				return fmt.Errorf("parallel: velocity tensor %d has %d elements, optimiser wants %d", i, len(snap.Velocity[i]), len(v.Data))
			}
			copy(v.Data, snap.Velocity[i])
		}
	}
	t.statsMu.Lock()
	t.stepIdx = snap.Step
	t.curEpoch = snap.Epoch
	t.lastBatch = snap.Batch
	t.epochShuffleState = snap.ShuffleState
	t.statsMu.Unlock()
	t.restored = snap
	t.tracer.Record(t.local[0].rank, obs.PhaseControl, "restore", -1, int64(len(snap.Params)), restoreStart, t.tracer.Now()-restoreStart)
	return nil
}

// Restore installs an elastic snapshot received out of band — the
// replacement path: cluster.Rejoin hands the snapshot the donor
// streamed, Restore installs it, and the next Run resumes at its
// cursor instead of epoch 0.
func (t *Trainer) Restore(snap *elastic.Snapshot) error {
	if snap == nil {
		return fmt.Errorf("parallel: nil snapshot")
	}
	return t.installSnapshot(snap)
}

// SaveState writes the trainer's full elastic session state — weights,
// optimiser velocity, counters and data cursor, in the repro/elastic
// snapshot format. Unlike SaveCheckpoint (weights only), a run resumed
// from this state via LoadState continues bit-identically to one that
// never stopped. Call it between Run calls or after Run returns, not
// mid-step.
func (t *Trainer) SaveState(w io.Writer) error {
	snap, err := t.makeSnapshot()
	if err != nil {
		return err
	}
	return snap.EncodeTo(w)
}

// LoadState restores state written by SaveState; the next Run resumes
// at the saved cursor. In a cluster, every rank must load the same
// state bytes.
func (t *Trainer) LoadState(r io.Reader) error {
	snap, err := elastic.ReadSnapshot(r)
	if err != nil {
		return err
	}
	return t.installSnapshot(snap)
}

// noteBatch advances the elastic cursor past a finished (or skipped)
// batch index of the running epoch.
func (t *Trainer) noteBatch(bi int) {
	t.statsMu.Lock()
	t.lastBatch = bi
	t.statsMu.Unlock()
}

// takeRestored consumes the pending resume cursor.
func (t *Trainer) takeRestored() *elastic.Snapshot {
	snap := t.restored
	t.restored = nil
	return snap
}

// tryRejoin decides what a step error means. Without an elastic
// controller — or for errors that are not a peer-death verdict, or
// once the rejoin budget is spent — the error is final and returned
// as-is (wrapped with the budget note where that is the cause). With
// one, the controller repairs the world; on success the trainer swaps
// in the rebuilt fabric and monitor, rebuilds the reducer over them,
// and reports how to resume: a non-nil snapshot moves the cursor (this
// rank caught up to the donor), nil re-runs the interrupted step in
// place. A failed repair surfaces the original verdict with the repair
// failure noted, still errors.As-matchable as health.ErrPeerDead so
// exit-code contracts hold.
func (t *Trainer) tryRejoin(stepErr error) (*elastic.Snapshot, error) {
	if t.cfg.Elastic == nil {
		return nil, stepErr
	}
	var dead health.ErrPeerDead
	if !errors.As(stepErr, &dead) {
		return nil, stepErr
	}
	// The budget: 0 means the default, negative unlimited.
	if budget := cmp.Or(t.cfg.MaxRejoins, elastic.DefaultMaxRejoins); budget >= 0 && t.rejoins >= budget {
		return nil, fmt.Errorf("parallel: rank %d exhausted its %d rejoin rounds: %w", t.local[0].rank, budget, stepErr)
	}
	t.rejoins++
	out, err := t.cfg.Elastic.Rejoin(stepErr, elastic.LocalState{
		Step:     t.currentStep(),
		Snapshot: t.makeSnapshot,
		Install:  t.installSnapshot,
	})
	if err != nil {
		return nil, fmt.Errorf("parallel: rank %d could not rejoin (%v) after %w", t.local[0].rank, err, stepErr)
	}
	// The replacement fabric's byte counter starts at zero; fold the
	// old incarnation's traffic into the base so EpochStats.WireBytes
	// stays cumulative across repairs (the old fabric is closed but
	// its counter remains readable). The swap happens under statsMu so
	// a concurrent metrics scrape reads either incarnation whole.
	t.statsMu.Lock()
	t.wireBase += t.fabric.TotalBytes()
	t.fabric = out.Fabric
	t.monitor = out.Monitor
	t.statsMu.Unlock()
	t.attachMonitor()
	t.tracer.Record(t.local[0].rank, obs.PhaseControl, "rejoin", -1, 0, t.tracer.Now(), 0)
	t.buildReducer()
	return t.takeRestored(), nil
}
