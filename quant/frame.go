package quant

import (
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// This file defines the self-describing framed wire format: a compact
// versioned header carrying the codec identity (as a Parse-able name),
// the tensor wire shape and the element count, followed by the codec's
// bit-packed payload. Everything required to decode travels in the
// header, so DecodeAny serves a peer that shares no configuration with
// the sender. A header depends only on (codec, n, shape) — FrameHeader —
// so a receiver that knows what arrives, as every rank of a comm
// Collective does from its plan, holds the header it expects and checks
// the one it receives against it byte for byte (MatchHeader) before it
// decodes the payload with its own codec. comm sends header and payload
// as one message whenever a transport reports Framed() (bytes leaving
// the process, e.g. TCP) and the bare payload otherwise; EncodeTo
// writes them as one frame.
//
// Frame layout (little-endian):
//
//	uint32  magic "LPSQ"
//	uint8   format version (currently 1)
//	uint8   codec name length L
//	L bytes codec name (Parse grammar, e.g. "qsgd4b512")
//	uint32  shape rows
//	uint32  shape cols
//	uint32  element count n
//	uint32  payload byte length
//	...     payload (exactly Codec.EncodedBytes(n, shape) bytes)

const (
	// FrameMagic identifies a framed low-precision gradient message
	// ("LPSQ" in little-endian byte order).
	FrameMagic uint32 = 'L' | 'P'<<8 | 'S'<<16 | 'Q'<<24
	// frameMagic is FrameMagic as the bytes on the wire.
	frameMagic = "LPSQ"

	// FrameVersion is the wire-format version this package writes, and
	// the only one its decoders accept.
	FrameVersion = 1

	// frameFixedBytes is the header size excluding the codec name.
	frameFixedBytes = 4 + 1 + 1 + 4*4

	// maxCodecName bounds the codec name a header carries.
	maxCodecName = 255

	// MaxFrameElements bounds the element count a frame may carry: the
	// encoders refuse to build larger frames and the decoders reject
	// headers announcing more, protecting receivers from adversarial or
	// corrupted headers that announce absurd tensor sizes. 2^28 elements
	// (a 1 GiB raw tensor) comfortably covers the largest whole-model
	// tensors in the study.
	MaxFrameElements = 1 << 28

	frameFormat = "quant: frame"
)

// header is a decoded frame header.
type header struct {
	codec        string // the codec name, resolvable with Parse
	shape        Shape  // the tensor's CNTK wire shape (fixes group boundaries)
	n            int    // the number of encoded elements
	payloadBytes int    // the byte length of the codec payload that follows
}

// FrameOverhead returns the header bytes a frame adds on top of the
// codec payload for a codec with the given name.
func FrameOverhead(codecName string) int {
	return frameFixedBytes + len(codecName)
}

// appendHeader appends the wire encoding of a frame header to dst. It
// panics on values no conforming decoder would accept — the same caps
// readHeader enforces — so unsendable frames fail at the sender, not
// silently at every receiver.
func appendHeader(dst []byte, codecName string, shape Shape, n, payloadBytes int) []byte {
	e := wire.Encoder{Format: frameFormat, Buf: dst}
	e.MagicVersion(frameMagic, FrameVersion)
	e.String("codec name", 1, maxCodecName, codecName)
	e.Len("shape rows", 4, math.MaxUint32, shape.Rows)
	e.Len("shape cols", 4, math.MaxUint32, shape.Cols)
	e.Len("element count", 4, MaxFrameElements, n)
	e.Len("payload length", 4, math.MaxUint32, payloadBytes)
	if err := e.Err(); err != nil {
		panic(err)
	}
	return e.Buf
}

// readHeader decodes the header every frame opens with — one read for
// the fixed prefix, one for the codec name, one for the sizes on an
// io.Reader. Truncated, corrupted or oversized headers fail d.
func readHeader(d *wire.Decoder) (h header) {
	d.Fill(6)
	d.ReadMagicVersion(frameMagic, FrameVersion)
	h.codec = d.String("codec name", 1, maxCodecName)
	d.Fill(16)
	h.shape.Rows = int(d.U32("shape rows"))
	h.shape.Cols = int(d.U32("shape cols"))
	h.n = d.Len("element count", 4, MaxFrameElements)
	h.payloadBytes = int(d.U32("payload length"))
	return h
}

// DecodeAny reads one complete frame from r and returns the decoded
// values. The codec is reconstructed from the header via Parse, so the
// caller needs no prior knowledge of what was sent; the announced
// payload length is cross-checked with the codec's own arithmetic
// before any payload is trusted. All failure modes — truncation,
// corruption, unknown codecs, inconsistent lengths — return errors
// rather than panicking.
func DecodeAny(r io.Reader) ([]float32, error) {
	d := wire.NewReader(frameFormat, r)
	h := readHeader(&d)
	var c Codec
	if d.Err() == nil {
		var err error
		if c, err = Parse(h.codec); err != nil {
			d.Fail("codec name", err)
		} else if want := c.EncodedBytes(h.n, h.shape); h.payloadBytes != want {
			d.Fail("payload length", fmt.Errorf("%d bytes, codec %s expects %d for n=%d shape=%s",
				h.payloadBytes, h.codec, want, h.n, h.shape))
		}
	}
	payload := d.Raw("payload", h.payloadBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	dst := make([]float32, h.n)
	if err := c.Decode(payload, h.n, h.shape, dst); err != nil {
		d.Fail("payload", err)
		return nil, d.Err()
	}
	return dst, nil
}

// framer holds the precomputed frame header for one encoder. Because an
// Encoder is bound to a fixed (codec, n, shape) triple, its header —
// including the payload length — is a constant.
type framer struct {
	hdr []byte
}

// newFramer precomputes the header for codec c encoding n elements of a
// tensor with the given wire shape.
func newFramer(c Codec, n int, shape Shape) framer {
	return framer{hdr: FrameHeader(c, n, shape)}
}

// FrameHeader returns the header that an encoder of codec c for n
// elements of a tensor with the given wire shape puts before every
// payload in EncodeTo: what a receiver expecting that frame checks
// with MatchHeader.
func FrameHeader(c Codec, n int, shape Shape) []byte {
	return appendHeader(nil, c.Name(), shape, n, c.EncodedBytes(n, shape))
}

// MatchHeader checks a received frame header against want, the
// FrameHeader of the frame the receiver expects, byte for byte: the
// check of a receiver that knows what arrives and so decodes the
// payload with its own codec. A mismatch is described as the two
// headers' codec, count, shape and payload length.
func MatchHeader(got, want []byte) error {
	if string(got) == string(want) {
		return nil
	}
	var hs [2]header
	for i, b := range [2][]byte{got, want} {
		d := wire.NewBytes(frameFormat, b)
		hs[i] = readHeader(&d)
		d.End()
		if err := d.Err(); err != nil {
			return err
		}
	}
	g, w := hs[0], hs[1]
	return fmt.Errorf("quant: frame of %s n=%d shape=%s payload=%d, want %s n=%d shape=%s payload=%d",
		g.codec, g.n, g.shape, g.payloadBytes, w.codec, w.n, w.shape, w.payloadBytes)
}

// encodeTo writes the header followed by payload to w as a single Write
// call, so a transport sees one message, and reports the bytes written.
func (f *framer) encodeTo(w io.Writer, payload []byte) (int, error) {
	frame := make([]byte, 0, len(f.hdr)+len(payload))
	return w.Write(append(append(frame, f.hdr...), payload...))
}
