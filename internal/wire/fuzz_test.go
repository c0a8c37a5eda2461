package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"testing/iotest"
)

// FuzzDecoder is the toolkit's own check that a decoded length never
// outgrows its cap, independent of every format built on it. One op
// sequence runs over arbitrary bytes on both paths — NewBytes, and
// NewReader over a reader that hands out one byte per Read. Each op is
// five bytes: a kind and a prefix width (1, 2 or 4), then a
// little-endian uint32 cap. Neither path may panic, no Len may exceed
// its cap, no Bytes or String may be longer than it, and the two paths
// must agree on every value and on the error.
func FuzzDecoder(f *testing.F) {
	op := func(kind, width int, cap uint32) []byte {
		return binary.LittleEndian.AppendUint32([]byte{byte(kind + opKinds*width)}, cap)
	}
	e := sample()
	f.Add([]byte{44, 1, 0, 0, 'x'}, op(opLen, 2, 100))                                       // a length of 300 past its cap of 100
	f.Add([]byte{5, 0, 'a', 'b'}, op(opBytes, 1, 16))                                        // within its cap, past the stream
	f.Add([]byte{4, 'w', 'i', 'r', 'e'}, slices.Concat(op(opString, 0, 8), op(opLen, 0, 9))) // then nothing left
	f.Add(e.Buf[5:20], slices.Concat(op(opFill, 0, 15), op(opUint, 0, 0), op(opUint, 1, 0), op(opUint, 2, 0), op(opF32s, 0, 2)))
	f.Add(e.Buf, slices.Concat(op(opFill, 0, 5), op(opBytes, 1, 4), op(opString, 0, 1<<32-1)))
	f.Add([]byte{}, op(opLen, 2, 0))
	f.Fuzz(func(t *testing.T, msg, ops []byte) {
		b := NewBytes("fuzz", msg)
		r := NewReader("fuzz", iotest.OneByteReader(bytes.NewReader(msg)))
		fromBytes, fromReader := decodeOps(t, &b, ops), decodeOps(t, &r, ops)
		if !slices.Equal(fromBytes, fromReader) {
			t.Fatalf("the paths disagree:\n []byte    %q\n io.Reader %q", fromBytes, fromReader)
		}
	})
}

// The op kinds FuzzDecoder draws from.
const (
	opLen = iota
	opBytes
	opString
	opUint
	opFill
	opF32s
	opKinds
)

// decodeOps runs ops on d, failing t on a result past its cap, and
// returns every result and the final error as text.
func decodeOps(t *testing.T, d *Decoder, ops []byte) []string {
	var got []string
	for ; len(ops) >= 5; ops = ops[5:] {
		width := [3]int{1, 2, 4}[ops[0]/opKinds%3]
		cap := int64(binary.LittleEndian.Uint32(ops[1:]))
		var v any
		switch ops[0] % opKinds {
		case opLen:
			n := d.Len("len", width, cap)
			if int64(n) > cap {
				t.Fatalf("Len returned %d past its cap of %d", n, cap)
			}
			v = n
		case opBytes:
			b := d.Bytes("bytes", width, cap)
			if int64(len(b)) > cap {
				t.Fatalf("Bytes returned %d bytes past its cap of %d", len(b), cap)
			}
			v = b
		case opString:
			s := d.String("string", width, cap)
			if int64(len(s)) > cap {
				t.Fatalf("String returned %d bytes past its cap of %d", len(s), cap)
			}
			v = s
		case opUint:
			v = d.uint("uint", width)
		case opFill:
			d.Fill(int(cap % 64))
		case opF32s:
			v = d.F32s("f32s", int(cap%256), nil)
		}
		got = append(got, fmt.Sprint(v))
	}
	return append(got, fmt.Sprint(d.Err()))
}
