package elastic

import (
	"bytes"
	"flag"
	"testing"

	"repro/internal/wire/wiretest"
)

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_golden.json from the snapshots this build encodes")

// snapshotSamples encodes a small snapshot with velocity tensors (one
// of them empty) and one at the start of an epoch with none.
func snapshotSamples(t testing.TB) map[string][]byte {
	t.Helper()
	fresh := sampleSnapshot()
	fresh.Batch, fresh.Velocity = -1, nil
	out := map[string][]byte{}
	for name, s := range map[string]*Snapshot{"snapshot": sampleSnapshot(), "snapshot/epoch-start": fresh} {
		var buf bytes.Buffer
		if err := s.EncodeTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestSnapshotWireGolden pins the LPSE snapshot encoding to
// testdata/wire_golden.json, and decodes each golden back into a
// snapshot that re-encodes to the same bytes.
func TestSnapshotWireGolden(t *testing.T) {
	golden := wiretest.Golden(t, "testdata/wire_golden.json", *updateWireGolden, snapshotSamples(t))
	for name, b := range golden {
		s, err := ReadSnapshot(bytes.NewReader(b))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var buf bytes.Buffer
		if err := s.EncodeTo(&buf); err != nil || !bytes.Equal(buf.Bytes(), b) {
			t.Errorf("%s: decode and re-encode gave %x (%v), golden %x", name, buf.Bytes(), err, b)
		}
	}
}

// snapshotLayout lists the fields of s's encoding in wire order.
func snapshotLayout(s *Snapshot) wiretest.Layout {
	l := wiretest.Magic(4).Add("seed", 8).Add("world", 4).Add("policy", 1+len(s.Policy)).
		Add("step", 8).Add("epoch", 4).Add("batch", 4).Add("shuffle state", 8).
		Add("momentum", 4).Add("weight decay", 4).Add("model checkpoint", 4+len(s.Params)).
		Add("velocity tensors", 4)
	for _, v := range s.Velocity {
		l = l.Add("velocity tensor", 4+4*len(v))
	}
	return l
}

func readSnapshot(b []byte) error {
	_, err := ReadSnapshot(bytes.NewReader(b))
	return err
}

// TestSnapshotTruncation cuts a snapshot at every byte and expects the
// decoder to name the field the cut falls in.
func TestSnapshotTruncation(t *testing.T) {
	msgs := snapshotSamples(t)
	wiretest.Truncations(t, msgs["snapshot"], snapshotLayout(sampleSnapshot()), readSnapshot)
}

// TestSnapshotCaps: a length one past its cap fails as a cap error
// naming the field.
func TestSnapshotCaps(t *testing.T) {
	msg, layout := snapshotSamples(t)["snapshot"], snapshotLayout(sampleSnapshot())
	wiretest.OverCap(t, msg, layout, "model checkpoint", 4, maxSnapshotParams, readSnapshot)
	wiretest.OverCap(t, msg, layout, "velocity tensors", 4, maxSnapshotTensors, readSnapshot)
	wiretest.OverCap(t, msg, layout, "velocity tensor", 4, maxSnapshotElems, readSnapshot)
}
