package nn

import (
	"bufio"
	"fmt"
	"io"

	"repro/internal/wire"
)

const (
	// checkpointMagic and checkpointVersion identify the checkpoint
	// format: together the 8-byte magic "LPSGD\x00\x00\x01".
	checkpointMagic   = "LPSGD\x00\x00"
	checkpointVersion = 1
	// maxParamName bounds a parameter name on the wire.
	maxParamName = 4096

	checkpointFormat = "nn: checkpoint"
)

// Save writes the network's parameter values (not gradients or
// optimiser state) to w in a versioned little-endian binary format, so
// long-running training jobs can checkpoint and resume.
//
// Layout: 8-byte magic, uint32 parameter count, then per parameter:
// uint32 name length, name bytes, uint32 rows, uint32 cols, and
// rows·cols float32 values.
func (n *Network) Save(w io.Writer) error {
	// Sized for names of up to 52 bytes; longer ones cost one regrowth.
	e := wire.Encoder{Format: checkpointFormat, Buf: make([]byte, 0, 12+64*len(n.params)+4*n.NumParams())}
	e.MagicVersion(checkpointMagic, checkpointVersion)
	e.U32(uint32(len(n.params)))
	for _, p := range n.params {
		e.String("parameter name", 4, maxParamName, p.Name)
		e.U32(uint32(p.Value.Rows))
		e.U32(uint32(p.Value.Cols))
		e.F32s(p.Value.Data)
	}
	return e.Send(w)
}

// Load restores parameter values previously written by Save into this
// network. The architectures must match: same parameter names, shapes
// and order. Gradients and optimiser state are untouched.
func (n *Network) Load(r io.Reader) error {
	d := wire.NewReader(checkpointFormat, bufio.NewReader(r))
	d.ReadMagicVersion(checkpointMagic, checkpointVersion)
	if count := d.U32("parameter count"); d.Err() == nil && int(count) != len(n.params) {
		d.Fail("parameter count", fmt.Errorf("checkpoint has %d parameters, network has %d", count, len(n.params)))
	}
	for _, p := range n.params {
		if name := d.String("parameter name", 4, maxParamName); d.Err() == nil && name != p.Name {
			d.Fail("parameter name", fmt.Errorf("checkpoint parameter %q, network expects %q", name, p.Name))
		}
		rows, cols := d.U32("rows"), d.U32("cols")
		if d.Err() == nil && (int(rows) != p.Value.Rows || int(cols) != p.Value.Cols) {
			d.Fail("shape", fmt.Errorf("checkpoint %s is %dx%d, network has %dx%d",
				p.Name, rows, cols, p.Value.Rows, p.Value.Cols))
		}
		d.F32s("values", len(p.Value.Data), p.Value.Data[:0])
	}
	return d.Err()
}
