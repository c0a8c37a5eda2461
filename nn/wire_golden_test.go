package nn

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
	"repro/rng"
)

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_golden.json from the checkpoint this build encodes")

// TestCheckpointWireGolden pins the checkpoint of a tiny network to
// testdata/wire_golden.json, and loads the golden into a network with
// other weights whose Save then reproduces it.
func TestCheckpointWireGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := checkpointNet(1).Save(&buf); err != nil {
		t.Fatal(err)
	}
	golden := wiretest.Golden(t, "testdata/wire_golden.json", *updateWireGolden,
		map[string][]byte{"checkpoint": buf.Bytes()})
	other := checkpointNet(2)
	if err := other.Load(bytes.NewReader(golden["checkpoint"])); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := other.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden["checkpoint"]) {
		t.Fatalf("load and save gave %x, golden %x", buf.Bytes(), golden["checkpoint"])
	}
}

// TestCheckpointTruncation cuts the checkpoint of a tiny network at
// every byte and expects Load to name the field the cut falls in; a
// name one past its cap fails as a cap error naming the field.
func TestCheckpointTruncation(t *testing.T) {
	net := checkpointNet(1)
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l := wiretest.Magic(len(checkpointMagic)).Add("parameter count", 4)
	for _, p := range net.Params() {
		l = l.Add("parameter name", 4+len(p.Name)).Add("rows", 4).Add("cols", 4).Add("values", 4*len(p.Value.Data))
	}
	load := func(b []byte) error { return checkpointNet(2).Load(bytes.NewReader(b)) }
	wiretest.Truncations(t, buf.Bytes(), l, load)
	wiretest.OverCap(t, buf.Bytes(), l, "parameter name", 4, maxParamName, load)
	long := MustNetwork(NewDense(strings.Repeat("x", maxParamName), 2, 2, rng.New(1)))
	var ce *wire.CapError
	if err := long.Save(io.Discard); !errors.As(wiretest.FieldErr(t, err, "parameter name"), &ce) {
		t.Errorf("Save of a name past its cap: %v, want a cap error", err)
	}
}
