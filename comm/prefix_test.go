package comm

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"

	"repro/quant"
)

// pipeFabric is rank 0 of a 2-rank mesh whose link to rank 1 is one end
// of a net.Pipe; the test plays rank 1 by writing raw bytes to the other
// end.
func pipeFabric(t *testing.T) (*RemoteFabric, net.Conn) {
	t.Helper()
	local, peer := net.Pipe()
	f, err := NewRemoteFabric(0, 2, []net.Conn{nil, local})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close(); peer.Close() })
	return f, peer
}

// feed writes a length prefix and then body to the peer end, closing it
// afterwards when asked — a stream that ends where the test says. Write
// errors are the fabric under test hanging up, which is its assertion
// to make. The returned channel closes once everything was consumed —
// on a net.Pipe a Write returns only when its bytes have been read.
func feed(peer net.Conn, announced uint32, body []byte, thenClose bool) <-chan struct{} {
	consumed := make(chan struct{})
	go func() {
		defer close(consumed)
		var prefix [4]byte
		binary.LittleEndian.PutUint32(prefix[:], announced)
		peer.Write(prefix[:])
		if len(body) > 0 {
			peer.Write(body)
		}
		if thenClose {
			peer.Close()
		}
	}()
	return consumed
}

// allocatedDuring reports the bytes fn allocates — or 0 under the race
// detector, which allocates on its own account and would make the
// bounds below meaningless.
func allocatedDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	if raceEnabled {
		return 0
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestRecvIntoRejectsLyingPrefix: a length prefix that is not the size
// the receiver posted is a typed error before any payload is read, and
// — the stream now being desynchronised — the link's every later
// receive fails the same way instead of parsing payload as a prefix.
func TestRecvIntoRejectsLyingPrefix(t *testing.T) {
	const want = 64
	for _, tc := range []struct {
		name      string
		announced uint32
	}{{"oversized", 1 << 30}, {"undersized", want - 1}} {
		t.Run(tc.name, func(t *testing.T) {
			f, peer := pipeFabric(t)
			consumed := feed(peer, tc.announced, make([]byte, want), false)
			dst := make([]byte, want)
			var err error
			if n := allocatedDuring(func() { err = f.RecvInto(1, 0, dst) }); n > 4<<10 {
				t.Errorf("rejecting the prefix allocated %d bytes", n)
			}
			var size *SizeError
			if !errors.As(err, &size) {
				t.Fatalf("got %v, want a *SizeError", err)
			}
			if size.From != 1 || size.Announced != int64(tc.announced) || size.Want != want {
				t.Fatalf("size error %+v, want rank 1 announcing %d against %d", size, tc.announced, want)
			}
			if again := f.RecvInto(1, 0, dst); again != err {
				t.Fatalf("next receive on the poisoned link: %v, want the same %v", again, err)
			}
			if _, again := f.Recv(1, 0); again != err {
				t.Fatalf("next variable-length receive: %v, want the same %v", again, err)
			}
			select {
			case <-consumed:
				t.Fatal("payload bytes were read behind a rejected prefix")
			default:
			}
		})
	}
}

// TestRecvTruncatedStreams: a stream that ends after the prefix or in
// the middle of a payload is an error naming the peer, allocates no more
// than one chunk however much was announced, and poisons the link.
func TestRecvTruncatedStreams(t *testing.T) {
	const want = 64
	for _, tc := range []struct {
		name string
		body int
		is   error
	}{{"eof-after-prefix", 0, io.EOF}, {"truncated-mid-payload", want / 2, io.ErrUnexpectedEOF}} {
		t.Run("into/"+tc.name, func(t *testing.T) {
			f, peer := pipeFabric(t)
			feed(peer, want, make([]byte, tc.body), true)
			dst := make([]byte, want)
			err := f.RecvInto(1, 0, dst)
			if !errors.Is(err, tc.is) || errors.Is(err, ErrClosed) {
				t.Fatalf("got %v, want a transport error wrapping %v", err, tc.is)
			}
			if again := f.RecvInto(1, 0, dst); again != err {
				t.Fatalf("next receive: %v, want the same %v", again, err)
			}
		})
		t.Run("variable/"+tc.name, func(t *testing.T) {
			f, peer := pipeFabric(t)
			// The prefix announces the largest message the cap admits; the
			// stream delivers next to nothing of it.
			feed(peer, maxRemoteMessage, make([]byte, tc.body), true)
			var err error
			if n := allocatedDuring(func() { _, err = f.Recv(1, 0) }); n > recvChunk+64<<10 {
				t.Errorf("a %d-byte stream announcing 1 GiB made Recv allocate %d bytes", 4+tc.body, n)
			}
			if !errors.Is(err, tc.is) || errors.Is(err, ErrClosed) {
				t.Fatalf("got %v, want a transport error wrapping %v", err, tc.is)
			}
			if _, again := f.Recv(1, 0); again != err {
				t.Fatalf("next receive: %v, want the same %v", again, err)
			}
		})
	}
}

// TestRecvRejectsPrefixOverCap: the variable-length path keeps its cap,
// refuses before reading any payload, and poisons the link.
func TestRecvRejectsPrefixOverCap(t *testing.T) {
	f, peer := pipeFabric(t)
	feed(peer, maxRemoteMessage+1, make([]byte, 8), false)
	var err error
	if n := allocatedDuring(func() { _, err = f.Recv(1, 0) }); n > 4<<10 {
		t.Errorf("rejecting the prefix allocated %d bytes", n)
	}
	if err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want a cap error", err)
	}
	if _, again := f.Recv(1, 0); again != err {
		t.Fatalf("next receive: %v, want the same %v", again, err)
	}
}

// TestRecvGrowsByChunks: a message larger than one chunk arrives whole
// through the variable-length path.
func TestRecvGrowsByChunks(t *testing.T) {
	f0, f1 := twoRankFabrics(t)
	defer f0.Close()
	defer f1.Close()
	big := make([]byte, 2*recvChunk+123)
	for i := range big {
		big[i] = byte(i * 7)
	}
	mustSend(t, f0, 0, 1, big)
	got, err := f1.Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(big) {
		t.Fatalf("received %d bytes, want %d", len(got), len(big))
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

// TestFabricSizeMismatch: the in-process fabric reports the same typed
// error; the message is consumed whole, so the link stays usable.
func TestFabricSizeMismatch(t *testing.T) {
	f := NewFabric(2)
	mustSend(t, f, 0, 1, make([]byte, 10))
	mustSend(t, f, 0, 1, []byte{42})
	var size *SizeError
	if err := f.RecvInto(0, 1, make([]byte, 9)); !errors.As(err, &size) || size.Announced != 10 || size.Want != 9 {
		t.Fatalf("got %v, want a *SizeError for 10 against 9", err)
	}
	if got := mustRecv(t, f, 0, 1, 1); got[0] != 42 {
		t.Fatalf("message after the mismatch arrived as %v", got)
	}
}

// TestOneWritePerMessage: prefix and payload leave in one Write, so an
// exchange of M messages is exactly M writes — no 4-byte segment per
// message on the TCP_NODELAY socket, and no window in which a failure
// strands a prefix without its body.
func TestOneWritePerMessage(t *testing.T) {
	const k = 3
	for _, build := range []func(Transport) Reducer{
		func(f Transport) Reducer {
			specs := []TensorSpec{
				{Name: "w", N: 3072, Wire: wireGoldenTensors[0], Codec: quant.MustParse("qsgd4b512")},
				{Name: "b", N: 130, Wire: wireGoldenTensors[1], Codec: quant.MustParse("qsgd4b512")},
			}
			return NewReduceBroadcast(f, specs, 5)
		},
		func(f Transport) Reducer { return NewRing(f) },
	} {
		f, rec := recordedMesh(t, k)
		red := build(f)
		inputs := make([][][]float32, k)
		for w := range inputs {
			inputs[w] = [][]float32{make([]float32, 3072), make([]float32, 130)}
		}
		runExchange(t, red, inputs)
		messages := f.TotalMessages()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		var writes int64
		for from := range rec {
			for _, c := range rec[from] {
				if c != nil {
					writes += int64(c.writeCount())
				}
			}
		}
		if messages == 0 || writes != messages {
			t.Errorf("%s: %d messages left in %d writes", red.Name(), messages, writes)
		}
	}
}
