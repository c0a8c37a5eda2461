package comm

import (
	"bytes"
	"testing"
	"time"
)

// TestSendBorrowsUntilFlush: Send lends its payload to the link until
// Flush returns, and no longer. A 16 MiB payload — more than the
// loopback socket buffers hold — is sent to a receiver that starts
// reading late; once Flush has returned the sender overwrites it, and
// the receiver must still read every original byte. A Flush that
// returned before the writer (or the in-process receiver) was done
// would let the overwrite through. Over TCP the writer must have sent
// from the lent payload itself, one writev, not from a copy of it.
func TestSendBorrowsUntilFlush(t *testing.T) {
	const n = 16 << 20
	for _, kind := range []string{"chan", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			f := benchFabric(t, kind, 2)
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(i*7 + 1)
			}
			want := bytes.Clone(payload)
			got := make(chan []byte, 1)
			go func() {
				time.Sleep(50 * time.Millisecond) // the writer fills the socket buffers first
				dst := make([]byte, n)
				if err := f.RecvInto(0, 1, nil, dst); err != nil {
					t.Error(err)
				}
				got <- dst
			}()
			if err := f.Send(0, 1, nil, payload); err != nil {
				t.Fatal(err)
			}
			if err := f.Flush(0); err != nil {
				t.Fatal(err)
			}
			clear(payload)
			if dst := <-got; !bytes.Equal(dst, want) {
				i := 0
				for dst[i] == want[i] {
					i++
				}
				t.Fatalf("byte %d arrived as %d, sent as %d: the payload was overwritten while still lent", i, dst[i], want[i])
			}
			if tf, ok := f.(*TCPFabric); ok && tf.ranks[0].links[1].wcopy != nil {
				t.Fatal("the TCP link's writer copied the message instead of writing the lent payload")
			}
		})
	}
}
