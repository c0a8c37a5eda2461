package comm

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"net"
	"os"
	"sync"
	"testing"

	"repro/quant"
	"repro/rng"
)

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_golden.json from the byte streams this build produces")

// recordingConn hashes and counts everything written to one end of a
// link: the exact byte stream the kernel is handed, length prefixes
// included, and how many Write calls it arrived in.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	sum    hash.Hash
	writes int
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sum.Write(p)
	c.writes++
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) digest() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return hex.EncodeToString(c.sum.Sum(nil))
}

func (c *recordingConn) writeCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes
}

// recordedMesh is a K-rank loopback mesh whose every link end records
// what its rank writes: rec[r][p] is rank r's stream to rank p.
func recordedMesh(t *testing.T, k int) (*TCPFabric, [][]*recordingConn) {
	t.Helper()
	raw := meshConns(t, k)
	rec := make([][]*recordingConn, k)
	ranks := make([]*RemoteFabric, k)
	for r := range raw {
		rec[r] = make([]*recordingConn, k)
		conns := make([]net.Conn, k)
		for p, c := range raw[r] {
			if c != nil {
				rec[r][p] = &recordingConn{Conn: c, sum: sha256.New()}
				conns[p] = rec[r][p]
			}
		}
		rf, err := NewRemoteFabric(r, k, conns)
		if err != nil {
			t.Fatal(err)
		}
		ranks[r] = rf
	}
	return &TCPFabric{k: k, ranks: ranks}, rec
}

// wireGoldenTensors is the inventory of the golden exchanges: a matrix,
// a bias that does not fill a quantisation group, and a matrix whose
// columns are shorter than any bucket.
var wireGoldenTensors = []quant.Shape{{Rows: 64, Cols: 48}, {Rows: 130, Cols: 1}, {Rows: 8, Cols: 125}}

// wireStreams runs two fixed-seed exchanges over a recorded mesh and
// returns the digest of every directed link's byte stream.
func wireStreams(t *testing.T, label string, k int, build func(Transport) *Collective) map[string]string {
	t.Helper()
	f, rec := recordedMesh(t, k)
	red := build(f)
	sizes := make([]int, len(wireGoldenTensors))
	for i, s := range wireGoldenTensors {
		sizes[i] = s.Len()
	}
	r := rng.New(20)
	for round := 0; round < 2; round++ {
		runExchange(t, red, randInputs(r, k, sizes))
	}
	// Close drains every writer, so the digests below are complete.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for from := range rec {
		for to, c := range rec[from] {
			if c != nil {
				out[fmt.Sprintf("%s/%d-%d", label, from, to)] = c.digest()
			}
		}
	}
	return out
}

// TestWireGolden pins the exact bytes every rank writes to every link —
// length prefix, frame header, payload — for reduce-and-broadcast under
// three codecs and for the ring. testdata/wire_golden.json was generated
// by this same test at the commit before the exchange engine was
// rebuilt around buffer ownership; the engine must reproduce it.
func TestWireGolden(t *testing.T) {
	got := map[string]string{}
	for _, name := range []string{"32bit", "qsgd4b512", "1bit"} {
		codec := quant.MustParse(name)
		specs := make([]TensorSpec, len(wireGoldenTensors))
		for i, s := range wireGoldenTensors {
			specs[i] = TensorSpec{Name: fmt.Sprintf("t%d", i), N: s.Len(), Wire: s, Codec: codec}
		}
		streams := wireStreams(t, "rb/"+name, 3, func(f Transport) *Collective {
			return NewReduceBroadcast(f, specs, 7)
		})
		for key, sum := range streams {
			got[key] = sum
		}
	}
	for key, sum := range wireStreams(t, "ring", 4, func(f Transport) *Collective { return NewRing(f) }) {
		got[key] = sum
	}

	const path = "testdata/wire_golden.json"
	if *updateWireGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("recorded %d link streams, golden has %d", len(got), len(want))
	}
	for key, sum := range want {
		if got[key] != sum {
			t.Errorf("%s: stream digest %s, golden %s", key, got[key], sum)
		}
	}
}
