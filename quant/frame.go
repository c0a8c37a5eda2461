package quant

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/wire"
)

// This file defines the self-describing framed wire format: a compact
// versioned header carrying the codec identity (as a Parse-able name),
// the tensor wire shape and the element count, followed by the codec's
// bit-packed payload. A peer that receives a frame needs no out-of-band
// agreement on codec, bucket size or shape — everything required to
// decode travels in the header. An Encoder's header is a constant
// (Encoder.Header), so a frame is that header followed by the Encode
// payload: comm sends the two parts as one message whenever a transport
// reports Framed() (bytes leaving the process, e.g. TCP) and the bare
// payload otherwise, and EncodeTo writes them as one frame.
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

// Header is the decoded frame header.
type Header struct {
	// Version is the wire-format version the frame was written with.
	Version byte
	// Codec is the codec name, resolvable with Parse.
	Codec string
	// Shape is the tensor's CNTK wire shape (fixes group boundaries).
	Shape Shape
	// N is the number of encoded elements.
	N int
	// PayloadBytes is the byte length of the codec payload that follows.
	PayloadBytes int
}

// FrameOverhead returns the header bytes a frame adds on top of the
// codec payload for a codec with the given name.
func FrameOverhead(codecName string) int {
	return frameFixedBytes + len(codecName)
}

// appendHeader appends the wire encoding of a frame header to dst. It
// panics on values no conforming decoder would accept — the same caps
// ReadHeader enforces — so unsendable frames fail at the sender, not
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
// io.Reader — returning the codec name as the bytes d holds.
func readHeader(d *wire.Decoder) (h Header, name []byte) {
	d.Fill(6)
	d.ReadMagicVersion(frameMagic, FrameVersion)
	h.Version = FrameVersion
	name = d.Bytes("codec name", 1, maxCodecName)
	d.Fill(16)
	h.Shape.Rows = int(d.U32("shape rows"))
	h.Shape.Cols = int(d.U32("shape cols"))
	h.N = d.Len("element count", 4, MaxFrameElements)
	h.PayloadBytes = int(d.U32("payload length"))
	return h, name
}

// ReadHeader reads and validates one frame header from r, leaving r
// positioned at the first payload byte. It returns an error — never
// panics — on truncated, corrupted or oversized headers.
func ReadHeader(r io.Reader) (Header, error) {
	d := wire.NewReader(frameFormat, r)
	h, name := readHeader(&d)
	if err := d.Err(); err != nil {
		return Header{}, err
	}
	h.Codec = string(name)
	return h, nil
}

// resolve resolves the header's codec name — past Parse when it is the
// name fd remembers — and cross-checks the announced payload length
// with the codec's own arithmetic, so a corrupted length field is
// caught before any payload is trusted.
func (fd *FrameDecoder) resolve(d *wire.Decoder, h *Header, name []byte) Codec {
	if d.Err() != nil {
		return nil
	}
	if fd.codec == nil || string(name) != fd.name {
		c, err := Parse(string(name))
		if err != nil {
			d.Fail("codec name", err)
			return nil
		}
		fd.name, fd.codec = string(name), c
	}
	h.Codec = fd.name
	if want := fd.codec.EncodedBytes(h.N, h.Shape); h.PayloadBytes != want {
		d.Fail("payload length", fmt.Errorf("%d bytes, codec %s expects %d for n=%d shape=%s",
			h.PayloadBytes, h.Codec, want, h.N, h.Shape))
		return nil
	}
	return fd.codec
}

// DecodeAny reads one complete frame from r and returns the decoded
// values. The codec is reconstructed from the header via Parse, so the
// caller needs no prior knowledge of what was sent. All failure modes —
// truncation, corruption, unknown codecs, inconsistent lengths — return
// errors rather than panicking.
func DecodeAny(r io.Reader) ([]float32, error) {
	d := wire.NewReader(frameFormat, r)
	h, name := readHeader(&d)
	c := new(FrameDecoder).resolve(&d, &h, name)
	payload := d.Raw("payload", h.PayloadBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	dst := make([]float32, h.N)
	if err := c.Decode(payload, h.N, h.Shape, dst); err != nil {
		d.Fail("payload", err)
		return nil, d.Err()
	}
	return dst, nil
}

// DecodeFramed decodes one complete frame held in frame into dst, whose
// length must equal the header's element count. It returns the header
// so callers can inspect what arrived. Like DecodeAny it needs no
// out-of-band codec agreement and never panics on bad input.
func DecodeFramed(frame []byte, dst []float32) (Header, error) {
	var d FrameDecoder
	return d.Decode(frame, dst)
}

// FrameDecoder decodes frames exactly as DecodeFramed does, and
// remembers the codec the last accepted codec name resolved to. A
// receiver that sees the same codec frame after frame — one tensor's
// exchange partner — thereby skips the Parse grammar and the
// allocations that building the name and the codec cost, and decodes
// without allocating. The memory is one entry, owned by the caller; a
// frame naming another codec is parsed afresh and replaces it, a name
// Parse rejects leaves it alone. The zero value is ready to use; a
// FrameDecoder must not be used from several goroutines at once.
type FrameDecoder struct {
	name  string
	codec Codec
}

// Decode decodes one complete frame held in frame into dst; see
// DecodeFramed.
func (fd *FrameDecoder) Decode(frame []byte, dst []float32) (Header, error) {
	return fd.decode(frame, dst, false)
}

// DecodeAdd adds the values of one complete frame held in frame into
// acc, as Codec.DecodeAdd does, after the same checks as Decode; where
// Decode would fail it fails and leaves acc untouched.
func (fd *FrameDecoder) DecodeAdd(frame []byte, acc []float32) (Header, error) {
	return fd.decode(frame, acc, true)
}

// decode is Decode, or with add set DecodeAdd.
func (fd *FrameDecoder) decode(frame []byte, dst []float32, add bool) (Header, error) {
	d := wire.NewBytes(frameFormat, frame)
	h, name := readHeader(&d)
	c := fd.resolve(&d, &h, name)
	if d.Err() == nil && len(dst) != h.N {
		d.Fail("element count", fmt.Errorf("frame holds %d elements, dst has %d", h.N, len(dst)))
	}
	payload := d.Raw("payload", h.PayloadBytes)
	d.End()
	if err := d.Err(); err != nil {
		return Header{}, err
	}
	var err error
	if add {
		err = c.DecodeAdd(payload, h.N, h.Shape, dst)
	} else {
		err = c.Decode(payload, h.N, h.Shape, dst)
	}
	if err != nil {
		d.Fail("payload", err)
		return Header{}, d.Err()
	}
	return h, nil
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
// payload (Encoder.Header).
func FrameHeader(c Codec, n int, shape Shape) []byte {
	return appendHeader(nil, c.Name(), shape, n, c.EncodedBytes(n, shape))
}

// MatchHeader checks a received frame header against want, the
// FrameHeader of the frame the receiver expects, byte for byte: the
// check of a receiver that knows what arrives, and so reads the payload
// in place rather than through a FrameDecoder. A mismatch is described
// as the two headers' codec, count, shape and payload length.
func MatchHeader(got, want []byte) error {
	if string(got) == string(want) {
		return nil
	}
	g, err := ReadHeader(bytes.NewReader(got))
	if err != nil {
		return err
	}
	w, err := ReadHeader(bytes.NewReader(want))
	if err != nil {
		return err
	}
	return fmt.Errorf("quant: frame of %s n=%d shape=%s payload=%d, want %s n=%d shape=%s payload=%d",
		g.Codec, g.N, g.Shape, g.PayloadBytes, w.Codec, w.N, w.Shape, w.PayloadBytes)
}

// Header implements Encoder.
func (f *framer) Header() []byte { return f.hdr }

// encodeTo writes the header followed by payload to w as a single Write
// call, so a transport sees one message, and reports the bytes written.
func (f *framer) encodeTo(w io.Writer, payload []byte) (int, error) {
	frame := make([]byte, 0, len(f.hdr)+len(payload))
	return w.Write(append(append(frame, f.hdr...), payload...))
}
