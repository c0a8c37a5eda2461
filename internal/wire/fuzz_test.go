package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"
	"testing/iotest"
)

// FuzzDecoder is the toolkit's own check that a decoded length never
// outgrows its cap, independent of every format built on it. One op
// sequence runs over arbitrary bytes on both paths — NewBytes, and
// NewReader over a reader that hands out one byte per Read. Each op is
// five bytes: a kind and a prefix width (1, 2 or 4), with the top bit
// making the cap negative, then a little-endian uint32 cap. Neither
// path may panic, and the two paths must agree on every value and on
// the error. Each Len, Bytes and String must take the encoder's side:
// a length the decoder accepts is one Encoder.Len writes under the same
// cap, and a length it refuses for its cap is one Encoder.Len refuses —
// under a negative cap, every length.
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
	f.Add([]byte{200, 0, 0, 0}, op(opLen|negCap, 2, 0))         // a length of 200 under a cap of −1
	f.Add([]byte{0, 'x'}, op(opBytes|negCap, 0, 4))             // even 0 under a cap of −5
	f.Add([]byte{2, 'o', 'k'}, op(opString|negCap, 0, 1<<32-1)) // the least cap
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

	// negCap on an op's kind byte makes its cap −1 − the uint32 drawn
	// (Fill and F32s take the uint32 as it is).
	negCap = 0x80
)

// decodeOps runs ops on d, failing t where a length's fate differs
// from the encoder's, and returns every result and the final error as
// text.
func decodeOps(t *testing.T, d *Decoder, ops []byte) []string {
	var got []string
	for ; len(ops) >= 5; ops = ops[5:] {
		kind := ops[0] &^ negCap
		width := [3]int{1, 2, 4}[kind/opKinds%3]
		raw := binary.LittleEndian.Uint32(ops[1:])
		cap := int64(raw)
		if ops[0]&negCap != 0 {
			cap = -1 - cap
		}
		before := d.Err()
		var v any
		switch kind % opKinds {
		case opLen:
			n := d.Len("len", width, cap)
			agree(t, d, before, "Len", n, cap)
			v = n
		case opBytes:
			b := d.Bytes("bytes", width, cap)
			agree(t, d, before, "Bytes", len(b), cap)
			v = b
		case opString:
			s := d.String("string", width, cap)
			agree(t, d, before, "String", len(s), cap)
			v = s
		case opUint:
			v = d.uint("uint", width)
		case opFill:
			d.Fill(int(raw % 64))
		case opF32s:
			v = d.F32s("f32s", int(raw%256), nil)
		}
		got = append(got, fmt.Sprint(v))
	}
	return append(got, fmt.Sprint(d.Err()))
}

// agree fails t unless Encoder.Len takes the side d took on the length
// its last op read under cap: before is d's error ahead of the op, n
// the length the op returned. A length d accepted the encoder must
// write; one d refused with a *CapError the encoder must refuse.
func agree(t *testing.T, d *Decoder, before error, op string, n int, cap int64) {
	if before != nil {
		return // d skipped the op
	}
	var e Encoder
	var ce *CapError
	switch err := d.Err(); {
	case err == nil:
		if e.Len("len", 4, cap, n); e.Err() != nil {
			t.Fatalf("%s returned %d under a cap of %d, which the encoder refuses: %v", op, n, cap, e.Err())
		}
	case errors.As(err, &ce):
		if e.Len("len", 4, cap, int(ce.N)); e.Err() == nil {
			t.Fatalf("%s refused %d under a cap of %d, which the encoder writes", op, ce.N, cap)
		}
	}
}
