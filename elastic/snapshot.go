package elastic

import (
	"fmt"
	"io"

	"repro/internal/wire"
)

// This file defines the session-state snapshot wire format: the one
// message a donor rank streams to every rank that must catch up during
// a rejoin round. Little-endian, magic-tagged and versioned, in the
// same spirit as the quant frame and rendezvous formats:
//
//	snapshot:
//	  uint32  magic "LPSE"
//	  uint8   format version (currently 1)
//	  uint64  experiment seed
//	  uint32  world size
//	  uint8   policy length, then the canonical policy string
//	  uint64  completed synchronous steps
//	  uint32  cursor epoch
//	  uint32  last completed batch index within the epoch, offset by
//	          one (0 = none yet, i.e. Batch -1)
//	  uint64  shuffle RNG state at the start of the cursor epoch
//	  float32 momentum, float32 weight decay
//	  uint32  model checkpoint length, then the nn.Network.Save bytes
//	  uint32  velocity tensor count, then per tensor uint32 element
//	          count + elements as float32 bits
//
// The model weights travel as an embedded nn checkpoint — the same
// bytes Trainer.SaveCheckpoint writes — so the restoring side gets the
// decoder's full name/shape validation for free. Velocity tensors are
// positional (the optimiser's parameter order), validated against the
// restored network by the installer.
type Snapshot struct {
	// Seed is the experiment seed the session trains under. A snapshot
	// restores only into a trainer configured with the same seed: the
	// seed keys the data order and every stochastic stream.
	Seed uint64
	// World is the session's world size.
	World int
	// Policy is the canonical spelling of the session's negotiated
	// precision policy.
	Policy string
	// Step counts the synchronous steps fully applied to this state.
	Step int64
	// Epoch and Batch are the data-shard cursor: Batch is the index of
	// the last completed batch within Epoch (-1 before the first), in
	// the epoch's full batch list including any short tail.
	Epoch int
	Batch int
	// ShuffleState is the shared shuffle RNG's state at the start of
	// Epoch — replaying the epoch's permutation from it reproduces the
	// exact batch order the cursor indexes into.
	ShuffleState uint64
	// Momentum and WeightDecay are the optimiser hyperparameters the
	// state was produced under; installers reject a mismatch rather
	// than silently blending two training regimes.
	Momentum    float32
	WeightDecay float32
	// Params is the model checkpoint (nn.Network.Save format).
	Params []byte
	// Velocity is the optimiser's momentum buffer per parameter, in
	// parameter order.
	Velocity [][]float32
}

const (
	// snapshotMagic tags snapshot messages.
	snapshotMagic = "LPSE"

	// SnapshotVersion is the snapshot format version this build writes.
	SnapshotVersion = 1

	// maxSnapshotPolicy bounds the policy string. maxSnapshotParams
	// bounds the embedded model checkpoint (256 MiB) so a corrupted
	// length field cannot make the reader allocate unbounded memory.
	// maxSnapshotTensors and maxSnapshotElems bound the velocity section
	// the same way.
	maxSnapshotPolicy  = 255
	maxSnapshotParams  = 256 << 20
	maxSnapshotTensors = 1 << 16
	maxSnapshotElems   = 64 << 20

	snapshotFormat = "elastic: snapshot"
)

// EncodeTo writes the snapshot as one self-describing message.
func (s *Snapshot) EncodeTo(w io.Writer) error {
	size := 64 + len(s.Policy) + len(s.Params)
	for _, v := range s.Velocity {
		size += 4 + 4*len(v)
	}
	e := wire.Encoder{Format: snapshotFormat, Buf: make([]byte, 0, size)}
	if s.Batch < -1 {
		e.Fail("batch", fmt.Errorf("cursor %d below -1", s.Batch))
	}
	e.MagicVersion(snapshotMagic, SnapshotVersion)
	e.U64(s.Seed)
	e.U32(uint32(s.World))
	e.String("policy", 1, maxSnapshotPolicy, s.Policy)
	e.U64(uint64(s.Step))
	e.U32(uint32(s.Epoch))
	e.U32(uint32(s.Batch + 1))
	e.U64(s.ShuffleState)
	e.F32(s.Momentum)
	e.F32(s.WeightDecay)
	e.Bytes("model checkpoint", 4, maxSnapshotParams, s.Params)
	e.Len("velocity tensors", 4, maxSnapshotTensors, len(s.Velocity))
	for _, v := range s.Velocity {
		e.Len("velocity tensor", 4, maxSnapshotElems, len(v))
		e.F32s(v)
	}
	return e.Send(w)
}

// ReadSnapshot decodes one snapshot message from r. It validates magic,
// version and every length field against hard caps before allocating,
// so arbitrary or truncated bytes yield an error — never a panic or an
// attacker-sized allocation.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	d := wire.NewReader(snapshotFormat, r)
	d.ReadMagicVersion(snapshotMagic, SnapshotVersion)
	d.Fill(13)
	s.Seed = d.U64("seed")
	s.World = int(d.U32("world"))
	s.Policy = d.String("policy", 1, maxSnapshotPolicy)
	d.Fill(36)
	s.Step = int64(d.U64("step"))
	s.Epoch = int(d.U32("epoch"))
	s.Batch = int(d.U32("batch")) - 1
	s.ShuffleState = d.U64("shuffle state")
	s.Momentum = d.F32("momentum")
	s.WeightDecay = d.F32("weight decay")
	s.Params = d.Bytes("model checkpoint", 4, maxSnapshotParams)
	n := d.Len("velocity tensors", 4, maxSnapshotTensors)
	for i := 0; i < n && d.Err() == nil; i++ {
		s.Velocity = append(s.Velocity, d.F32s("velocity tensor", d.Len("velocity tensor", 4, maxSnapshotElems), nil))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return &s, nil
}
