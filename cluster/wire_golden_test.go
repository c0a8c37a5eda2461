package cluster

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/internal/wire/wiretest"
)

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_golden.json from the rendezvous messages this build encodes")

const sampleReject = "cluster: rank 1 expects a world of 5, coordinator has 3"

// The rendezvous messages a real three-rank session sends: the values
// behind the goldens, the fuzz seeds and the truncation tables.
var (
	sampleHellos = map[string]hello{
		"hello/fresh":       {Rank: 1, World: 3, MeshAddr: "127.0.0.1:41234", Accept: []string{"qsgd4b512", "32bit"}},
		"hello/rejoin":      {Rank: 1, World: 3, MeshAddr: "127.0.0.1:41240", Rejoin: true, Step: 417},
		"hello/replacement": {Rank: 2, World: 3, MeshAddr: "127.0.0.1:41241", Accept: []string{"qsgd4b512;*.b=32bit"}, Rejoin: true, Step: -1},
	}
	sampleWelcomes = map[string]welcome{
		"welcome/ok": {
			Codec: "qsgd4b512", Addrs: []string{"127.0.0.1:41230", "127.0.0.1:41234", "127.0.0.1:41235"},
			HeartbeatInterval: 250 * time.Millisecond, HeartbeatTimeout: 2 * time.Second,
			RejoinWindow: 30 * time.Second,
		},
		"welcome/rejoin": {
			Codec: "qsgd4b512", Addrs: []string{"127.0.0.1:41236", "127.0.0.1:41240", "127.0.0.1:41241"},
			HeartbeatInterval: 50 * time.Millisecond, HeartbeatTimeout: time.Second,
			Generation: 1, RejoinWindow: 30 * time.Second, Steps: []int64{417, 417, -1},
		},
	}
)

// rendezvousSamples encodes every sample message.
func rendezvousSamples(t testing.TB) map[string][]byte {
	t.Helper()
	enc := func(write func(w io.Writer) error) []byte {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out := map[string][]byte{
		"welcome/reject":   enc(func(w io.Writer) error { writeReject(w, ProtocolVersion, sampleReject); return nil }),
		"preamble/data":    enc(func(w io.Writer) error { return writeMeshPreamble(w, 2, 0, linkData) }),
		"preamble/control": enc(func(w io.Writer) error { return writeMeshPreamble(w, 2, 1, linkControl) }),
	}
	for name, h := range sampleHellos {
		out[name] = enc(func(w io.Writer) error { return writeHello(w, h) })
	}
	for name, wel := range sampleWelcomes {
		out[name] = enc(func(w io.Writer) error { return writeWelcome(w, wel) })
	}
	return out
}

// TestRendezvousWireGolden pins every rendezvous message kind to the
// bytes in testdata/wire_golden.json, and decodes each golden back into
// a value that re-encodes to the same bytes.
func TestRendezvousWireGolden(t *testing.T) {
	golden := wiretest.Golden(t, "testdata/wire_golden.json", *updateWireGolden, rendezvousSamples(t))
	for name, b := range golden {
		var buf bytes.Buffer
		var err error
		switch {
		case name == "welcome/reject":
			_, err = readWelcome(bytes.NewReader(b))
			if err == nil || !strings.Contains(err.Error(), sampleReject) {
				t.Errorf("%s: decoded as %v, want the rejection message", name, err)
			}
			continue
		case strings.HasPrefix(name, "hello/"):
			var h hello
			if h, err = readHello(bytes.NewReader(b)); err == nil {
				err = writeHello(&buf, h)
			}
		case strings.HasPrefix(name, "welcome/"):
			var wel welcome
			if wel, err = readWelcome(bytes.NewReader(b)); err == nil {
				err = writeWelcome(&buf, wel)
			}
		case strings.HasPrefix(name, "preamble/"):
			from, to, kind, rerr := readMeshPreamble(bytes.NewReader(b))
			if err = rerr; err == nil {
				err = writeMeshPreamble(&buf, from, to, kind)
			}
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(buf.Bytes(), b) {
			t.Errorf("%s: decode and re-encode gave %x, golden %x", name, buf.Bytes(), b)
		}
	}
}

// rendezvousLayouts lists every sample message's fields in wire order.
func rendezvousLayouts() map[string]wiretest.Layout {
	out := map[string]wiretest.Layout{
		"welcome/reject":   wiretest.Magic(4).Add("status", 1).Add("rejection", 2+len(sampleReject)),
		"preamble/data":    wiretest.Magic(4).Add("from rank", 4).Add("to rank", 4).Add("link kind", 1),
		"preamble/control": wiretest.Magic(4).Add("from rank", 4).Add("to rank", 4).Add("link kind", 1),
	}
	for name, h := range sampleHellos {
		l := wiretest.Magic(4).Add("rank", 4).Add("world", 4).Add("mesh address", 2+len(h.MeshAddr)).Add("policies", 2)
		for _, p := range h.Accept {
			l = l.Add("policy", 1+len(p))
		}
		out[name] = l.Add("kind", 1).Add("step", 8)
	}
	for name, wel := range sampleWelcomes {
		l := wiretest.Magic(4).Add("status", 1).Add("policy", 1+len(wel.Codec)).Add("world", 4)
		for _, a := range wel.Addrs {
			l = l.Add("mesh address", 2+len(a))
		}
		l = l.Add("heartbeat interval", 4).Add("heartbeat timeout", 4).Add("generation", 4).
			Add("rejoin window", 4).Add("step table", 4)
		for range wel.Steps {
			l = l.Add("step", 8)
		}
		out[name] = l
	}
	return out
}

// decodeRendezvous decodes b as the kind of message name is.
func decodeRendezvous(name string, b []byte) error {
	var err error
	switch {
	case strings.HasPrefix(name, "hello/"):
		_, err = readHello(bytes.NewReader(b))
	case name == "welcome/reject":
		if _, err = readWelcome(bytes.NewReader(b)); err != nil && strings.HasSuffix(err.Error(), sampleReject) {
			err = nil // the whole rejection arrived
		}
	case strings.HasPrefix(name, "welcome/"):
		_, err = readWelcome(bytes.NewReader(b))
	case strings.HasPrefix(name, "preamble/"):
		_, _, _, err = readMeshPreamble(bytes.NewReader(b))
	}
	return err
}

// TestRendezvousTruncation cuts every rendezvous message at every byte
// and expects the decoder to name the field the cut falls in.
func TestRendezvousTruncation(t *testing.T) {
	msgs := rendezvousSamples(t)
	for name, layout := range rendezvousLayouts() {
		t.Run(name, func(t *testing.T) {
			wiretest.Truncations(t, msgs[name], layout, func(b []byte) error { return decodeRendezvous(name, b) })
		})
	}
}

// TestRendezvousCaps: a length one past its cap fails as a cap error
// naming the field, on the reader and — where the cap is narrower than
// the prefix — already on the writer.
func TestRendezvousCaps(t *testing.T) {
	msgs, layouts := rendezvousSamples(t), rendezvousLayouts()
	for _, c := range []struct {
		msg, field string
		width      int
		cap        int64
	}{
		{"hello/fresh", "mesh address", 2, maxAddrLen},
		{"hello/fresh", "policies", 2, maxCodecs},
		{"welcome/ok", "world", 4, maxWorld},
		{"welcome/ok", "mesh address", 2, maxAddrLen},
		{"welcome/rejoin", "step table", 4, maxWorld},
		{"welcome/reject", "rejection", 2, maxRejectLen},
	} {
		wiretest.OverCap(t, msgs[c.msg], layouts[c.msg], c.field, c.width, c.cap,
			func(b []byte) error { return decodeRendezvous(c.msg, b) })
	}
	long := strings.Repeat("a", maxAddrLen+1)
	var ce *wire.CapError
	for _, err := range []error{
		writeHello(io.Discard, hello{MeshAddr: long}),
		writeHello(io.Discard, hello{Accept: make([]string, maxCodecs+1)}),
		writeHello(io.Discard, hello{Accept: []string{long}}),
		writeWelcome(io.Discard, welcome{Codec: long, Addrs: []string{"a"}}),
		writeWelcome(io.Discard, welcome{Addrs: []string{long}}),
		writeWelcome(io.Discard, welcome{Addrs: make([]string, maxWorld+1)}),
	} {
		if !errors.As(err, &ce) {
			t.Errorf("writer accepted a field past its cap: %v", err)
		}
	}
}

// TestReadHelloVersionError: a hello at another version is read up to
// its version byte and reported with that version, for the reject.
func TestReadHelloVersionError(t *testing.T) {
	var e wire.Encoder
	e.MagicVersion(rendezvousMagic, ProtocolVersion+1)
	h, err := readHello(bytes.NewReader(e.Buf))
	if err != nil || h.Version != ProtocolVersion+1 {
		t.Fatalf("got %+v, %v; want version %d and no error", h, err, ProtocolVersion+1)
	}
	var ve *wire.VersionError
	_, err = readWelcome(bytes.NewReader(e.Buf))
	if wiretest.FieldErr(t, err, "version"); !errors.As(err, &ve) || ve.Got != ProtocolVersion+1 {
		t.Fatalf("welcome at another version: %v", err)
	}
}
