package quant

import (
	"encoding/binary"
	"fmt"
	"io"
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

	// FrameVersion is the wire-format version this package writes.
	// Decoders reject frames from a newer format.
	FrameVersion = 1

	// frameFixedBytes is the header size excluding the codec name.
	frameFixedBytes = 4 + 1 + 1 + 4*4

	// MaxFrameElements bounds the element count a frame may carry: the
	// encoders refuse to build larger frames and the decoders reject
	// headers announcing more, protecting receivers from adversarial or
	// corrupted headers that announce absurd tensor sizes. 2^28 elements
	// (a 1 GiB raw tensor) comfortably covers the largest whole-model
	// tensors in the study.
	MaxFrameElements = 1 << 28
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
	if len(codecName) > 255 {
		panic(fmt.Sprintf("quant: codec name %q longer than 255 bytes", codecName))
	}
	if n < 0 || n > MaxFrameElements {
		panic(fmt.Sprintf("quant: frame element count %d outside [0, %d]", n, MaxFrameElements))
	}
	if payloadBytes < 0 || int64(payloadBytes) > int64(^uint32(0)) ||
		shape.Rows < 0 || int64(shape.Rows) > int64(^uint32(0)) ||
		shape.Cols < 0 || int64(shape.Cols) > int64(^uint32(0)) {
		panic(fmt.Sprintf("quant: frame fields out of uint32 range (shape %s, payload %d)", shape, payloadBytes))
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], FrameMagic)
	dst = append(dst, b[:]...)
	dst = append(dst, FrameVersion, byte(len(codecName)))
	dst = append(dst, codecName...)
	for _, v := range [4]uint32{uint32(shape.Rows), uint32(shape.Cols), uint32(n), uint32(payloadBytes)} {
		binary.LittleEndian.PutUint32(b[:], v)
		dst = append(dst, b[:]...)
	}
	return dst
}

// parseFixed validates the six bytes every header starts with — magic,
// version, codec-name length — and returns the version and the name
// length.
func parseFixed(fixed []byte) (version byte, nameLen int, err error) {
	if magic := binary.LittleEndian.Uint32(fixed[0:]); magic != FrameMagic {
		return 0, 0, fmt.Errorf("quant: bad frame magic %#x", magic)
	}
	version = fixed[4]
	if version == 0 || version > FrameVersion {
		return 0, 0, fmt.Errorf("quant: unsupported frame version %d (have %d)", version, FrameVersion)
	}
	return version, int(fixed[5]), nil
}

// parseSizes decodes the sixteen header bytes that follow the codec
// name — shape, element count, payload length — into h.
func (h *Header) parseSizes(rest []byte) error {
	h.Shape = Shape{
		Rows: int(binary.LittleEndian.Uint32(rest[0:])),
		Cols: int(binary.LittleEndian.Uint32(rest[4:])),
	}
	h.N = int(binary.LittleEndian.Uint32(rest[8:]))
	h.PayloadBytes = int(binary.LittleEndian.Uint32(rest[12:]))
	if h.N > MaxFrameElements {
		return fmt.Errorf("quant: frame announces %d elements, cap is %d", h.N, MaxFrameElements)
	}
	return nil
}

// ReadHeader reads and validates one frame header from r, leaving r
// positioned at the first payload byte. It returns an error — never
// panics — on truncated, corrupted or oversized headers.
func ReadHeader(r io.Reader) (Header, error) {
	var fixed [6]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return Header{}, fmt.Errorf("quant: frame header: %w", err)
	}
	version, nameLen, err := parseFixed(fixed[:])
	if err != nil {
		return Header{}, err
	}
	h := Header{Version: version}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return Header{}, fmt.Errorf("quant: frame codec name: %w", err)
	}
	h.Codec = string(name)
	var rest [16]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return Header{}, fmt.Errorf("quant: frame header: %w", err)
	}
	if err := h.parseSizes(rest[:]); err != nil {
		return Header{}, err
	}
	return h, nil
}

// resolve parses the header's codec and cross-checks the announced
// payload length with checkPayload.
func (h Header) resolve() (Codec, error) {
	c, err := Parse(h.Codec)
	if err != nil {
		return nil, fmt.Errorf("quant: frame codec: %w", err)
	}
	return c, h.checkPayload(c)
}

// checkPayload cross-checks the announced payload length against the
// codec's own arithmetic, so a corrupted length field is caught before
// any payload is trusted.
func (h Header) checkPayload(c Codec) error {
	if want := c.EncodedBytes(h.N, h.Shape); h.PayloadBytes != want {
		return fmt.Errorf("quant: frame payload %d bytes, codec %s expects %d for n=%d shape=%s",
			h.PayloadBytes, h.Codec, want, h.N, h.Shape)
	}
	return nil
}

// DecodeAny reads one complete frame from r and returns the decoded
// values. The codec is reconstructed from the header via Parse, so the
// caller needs no prior knowledge of what was sent. All failure modes —
// truncation, corruption, unknown codecs, inconsistent lengths — return
// errors rather than panicking.
func DecodeAny(r io.Reader) ([]float32, error) {
	h, err := ReadHeader(r)
	if err != nil {
		return nil, err
	}
	c, err := h.resolve()
	if err != nil {
		return nil, err
	}
	payload, err := readPayload(r, h.PayloadBytes)
	if err != nil {
		return nil, fmt.Errorf("quant: frame payload: %w", err)
	}
	dst := make([]float32, h.N)
	if err := c.Decode(payload, h.N, h.Shape, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// readPayload reads exactly n payload bytes, growing the buffer in
// bounded chunks so a corrupted header announcing a huge payload fails
// on the (truncated) input instead of allocating the announced size up
// front.
func readPayload(r io.Reader, n int) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		m := min(n-len(buf), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, m)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeFramed decodes one complete frame held in wire into dst, whose
// length must equal the header's element count. It returns the header
// so callers can inspect what arrived. Like DecodeAny it needs no
// out-of-band codec agreement and never panics on bad input.
func DecodeFramed(wire []byte, dst []float32) (Header, error) {
	var d FrameDecoder
	return d.Decode(wire, dst)
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

// Decode decodes one complete frame held in wire into dst; see
// DecodeFramed.
func (d *FrameDecoder) Decode(wire []byte, dst []float32) (Header, error) {
	fixed, rest, err := take(wire, 6)
	if err != nil {
		return Header{}, fmt.Errorf("quant: frame header: %w", err)
	}
	version, nameLen, err := parseFixed(fixed)
	if err != nil {
		return Header{}, err
	}
	h := Header{Version: version}
	name, rest, err := take(rest, nameLen)
	if err != nil {
		return Header{}, fmt.Errorf("quant: frame codec name: %w", err)
	}
	sizes, payload, err := take(rest, 16)
	if err != nil {
		return Header{}, fmt.Errorf("quant: frame header: %w", err)
	}
	if err := h.parseSizes(sizes); err != nil {
		return Header{}, err
	}
	if d.codec == nil || string(name) != d.name {
		c, err := Parse(string(name))
		if err != nil {
			return Header{}, fmt.Errorf("quant: frame codec: %w", err)
		}
		d.name, d.codec = string(name), c
	}
	h.Codec = d.name
	if err := h.checkPayload(d.codec); err != nil {
		return Header{}, err
	}
	if len(dst) != h.N {
		return Header{}, fmt.Errorf("quant: frame holds %d elements, dst has %d", h.N, len(dst))
	}
	if len(payload) != h.PayloadBytes {
		return Header{}, fmt.Errorf("quant: frame payload %d bytes, header announces %d", len(payload), h.PayloadBytes)
	}
	if err := d.codec.Decode(payload, h.N, h.Shape, dst); err != nil {
		return Header{}, err
	}
	return h, nil
}

// take splits the first n bytes off b, failing as io.ReadFull would on
// a reader holding b.
func take(b []byte, n int) (head, tail []byte, err error) {
	switch {
	case len(b) >= n:
		return b[:n], b[n:], nil
	case len(b) == 0:
		return nil, nil, io.EOF
	default:
		return nil, nil, io.ErrUnexpectedEOF
	}
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
	return framer{hdr: appendHeader(nil, c.Name(), shape, n, c.EncodedBytes(n, shape))}
}

// Header implements Encoder.
func (f *framer) Header() []byte { return f.hdr }

// encodeTo writes the header followed by payload to w as a single Write
// call, so a transport sees one message, and reports the bytes written.
func (f *framer) encodeTo(w io.Writer, payload []byte) (int, error) {
	frame := make([]byte, 0, len(f.hdr)+len(payload))
	return w.Write(append(append(frame, f.hdr...), payload...))
}
