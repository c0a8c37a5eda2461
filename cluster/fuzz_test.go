package cluster

import (
	"bytes"
	"testing"
)

// The rendezvous decoders are the first thing any peer — or any stray
// connection — reaches. Like quant's FuzzDecodeAny they must turn
// arbitrary bytes into an error or a value, never a panic, and every
// value they accept must respect the caps the coordinator relies on
// and re-encode to exactly the bytes it was decoded from.

// addRendezvousSeeds seeds f with every real rendezvous message kind
// plus the prefixes a stray connection might send.
func addRendezvousSeeds(f *testing.F) {
	for _, b := range rendezvousSamples(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	f.Add([]byte("LPSC"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
}

// consumed returns the prefix of data r has read.
func consumed(data []byte, r *bytes.Reader) []byte { return data[:len(data)-r.Len()] }

func FuzzReadHello(f *testing.F) {
	addRendezvousSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		h, err := readHello(r)
		if err != nil || h.Version != ProtocolVersion {
			return
		}
		if len(h.Accept) > maxCodecs || len(h.MeshAddr) > maxAddrLen {
			t.Fatalf("accepted a hello past its caps: %d policies, %d-byte address", len(h.Accept), len(h.MeshAddr))
		}
		var buf bytes.Buffer
		if err := writeHello(&buf, h); err != nil {
			t.Fatalf("accepted hello does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed(data, r)) {
			t.Fatalf("hello re-encodes to %x, decoded from %x", buf.Bytes(), consumed(data, r))
		}
	})
}

func FuzzReadWelcome(f *testing.F) {
	addRendezvousSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		wel, err := readWelcome(r)
		if err != nil {
			return
		}
		world := len(wel.Addrs)
		if world == 0 || world > 1<<16 {
			t.Fatalf("accepted a welcome with world %d", world)
		}
		if len(wel.Steps) != 0 && len(wel.Steps) != world {
			t.Fatalf("accepted a step table of %d ranks for world %d", len(wel.Steps), world)
		}
		for _, a := range wel.Addrs {
			if len(a) > maxAddrLen {
				t.Fatalf("accepted a %d-byte mesh address", len(a))
			}
		}
		var buf bytes.Buffer
		if err := writeWelcome(&buf, wel); err != nil {
			t.Fatalf("accepted welcome does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed(data, r)) {
			t.Fatalf("welcome re-encodes to %x, decoded from %x", buf.Bytes(), consumed(data, r))
		}
	})
}

func FuzzReadMeshPreamble(f *testing.F) {
	addRendezvousSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		from, to, kind, err := readMeshPreamble(r)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeMeshPreamble(&buf, from, to, kind); err != nil {
			t.Fatalf("accepted preamble does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed(data, r)) {
			t.Fatalf("preamble re-encodes to %x, decoded from %x", buf.Bytes(), consumed(data, r))
		}
	})
}
