// Package wire is the toolkit every binary format in this repository is
// written and read with: the rendezvous (cluster), the control and
// telemetry messages (health), the session snapshot (elastic), the
// gradient frame (quant) and the model checkpoint (nn). Each format
// keeps its layout comment, magic and version; this package owns the
// mechanics. Fields are little-endian. An Encoder appends them to a
// byte slice; a Decoder reads them from a byte slice or an io.Reader.
// Both keep the first error and skip every later call, so a format is
// straight-line code with one error check at the end.
//
// Caps. Every length or count on the wire travels with a cap: Len,
// Bytes and String take the prefix width and the cap as arguments. A
// format declares each cap once, as a named constant its encoder and
// its decoder both pass, so a writer refuses exactly what its reader
// rejects (a *CapError). On an io.Reader a Decoder allocates at most
// one chunk ahead of the bytes that arrived, so a lying length fails on
// the short stream, not on memory.
//
// Errors. Every error is a *FieldError naming the format and the field
// being written or read, wrapping the cause: io.ErrUnexpectedEOF for a
// message cut short (io.EOF when not one byte of it arrived, as
// io.ReadFull reports), a *CapError, a *VersionError, or a format's own
// check (Fail).
//
// Reads. On a []byte a Decoder hands back sub-slices and never copies.
// On an io.Reader each field reads exactly its own bytes, so a stream
// of messages stays in step; Fill fetches a run of fixed-width fields
// with one read.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// FieldError is the error of a field that could not be written or
// read: Format names the message ("cluster: hello"), Field the field
// ("mesh address"), Err the cause.
type FieldError struct {
	Format, Field string
	Err           error
}

func (e *FieldError) Error() string { return e.Format + " " + e.Field + ": " + e.Err.Error() }
func (e *FieldError) Unwrap() error { return e.Err }

// CapError reports a length or count past its cap.
type CapError struct{ N, Cap int64 }

func (e *CapError) Error() string { return fmt.Sprintf("%d exceeds the cap of %d", e.N, e.Cap) }

// VersionError reports a message at a version other than the one this
// build speaks. Got lets a receiver answer the sender in its own
// version.
type VersionError struct{ Got, Want byte }

func (e *VersionError) Error() string { return fmt.Sprintf("%d, this build speaks %d", e.Got, e.Want) }

// chunk bounds how far a Decoder on an io.Reader allocates ahead of the
// bytes that actually arrived.
const chunk = 1 << 20

// Encoder appends one message's fields to Buf. The zero value is ready
// to use; set Buf to reuse a buffer and Format to name the message in
// errors.
type Encoder struct {
	Format string
	Buf    []byte
	err    error
}

func (e *Encoder) U8(v uint8)    { e.Buf = append(e.Buf, v) }
func (e *Encoder) U16(v uint16)  { e.Buf = binary.LittleEndian.AppendUint16(e.Buf, v) }
func (e *Encoder) U32(v uint32)  { e.Buf = binary.LittleEndian.AppendUint32(e.Buf, v) }
func (e *Encoder) U64(v uint64)  { e.Buf = binary.LittleEndian.AppendUint64(e.Buf, v) }
func (e *Encoder) F32(v float32) { e.U32(math.Float32bits(v)) }
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }
func (e *Encoder) F32s(v []float32) {
	for _, x := range v {
		e.U32(math.Float32bits(x))
	}
}

// MagicVersion appends a message's magic tag and version byte.
func (e *Encoder) MagicVersion(magic string, version byte) {
	e.Buf = append(append(e.Buf, magic...), version)
}

// Len appends n as a width-byte unsigned field, refusing n outside
// [0, cap].
func (e *Encoder) Len(field string, width int, cap int64, n int) {
	if n < 0 || int64(n) > cap {
		e.Fail(field, &CapError{N: int64(n), Cap: cap})
	}
	for i := 0; i < width; i++ {
		e.Buf = append(e.Buf, byte(uint64(n)>>(8*i)))
	}
}

// Bytes appends b behind a width-byte length prefix bounded by cap.
func (e *Encoder) Bytes(field string, width int, cap int64, b []byte) {
	e.Len(field, width, cap, len(b))
	e.Buf = append(e.Buf, b...)
}

// String appends s behind a width-byte length prefix bounded by cap.
func (e *Encoder) String(field string, width int, cap int64, s string) {
	e.Len(field, width, cap, len(s))
	e.Buf = append(e.Buf, s...)
}

// Fail records err against field unless an error is recorded already.
func (e *Encoder) Fail(field string, err error) { record(&e.err, e.Format, field, err) }

// Err returns the first refusal, or nil.
func (e *Encoder) Err() error { return e.err }

func record(dst *error, format, field string, err error) {
	if *dst == nil {
		*dst = &FieldError{Format: format, Field: field, Err: err}
	}
}

// Send writes the message to w in one Write call, unless a field was
// refused.
func (e *Encoder) Send(w io.Writer) error {
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.Buf)
	return err
}

// Decoder reads one message's fields. Build it with NewBytes or
// NewReader.
type Decoder struct {
	format string
	r      io.Reader // nil when decoding a []byte
	buf    []byte    // bytes held and not yet decoded
	off    int       // bytes of the message decoded so far
	rerr   error     // why r stopped delivering, once it has
	err    error
}

// NewBytes returns a Decoder over the message held in b.
func NewBytes(format string, b []byte) Decoder { return Decoder{format: format, buf: b} }

// NewReader returns a Decoder that reads the message from r, consuming
// no byte past the last field read.
func NewReader(format string, r io.Reader) Decoder { return Decoder{format: format, r: r} }

// Fill makes the next n bytes of a message on an io.Reader available
// with one read, for a run of fixed-width fields. When the reader ends
// first, the bytes that did arrive are kept, so the error still names
// the field the message was cut in. On a []byte it does nothing.
func (d *Decoder) Fill(n int) {
	if d.r == nil || d.err != nil || d.rerr != nil || len(d.buf) >= n {
		return
	}
	b := append(make([]byte, 0, n), d.buf...)
	k, err := io.ReadFull(d.r, b[len(b):n])
	d.buf, d.rerr = b[:len(b)+k], err
}

// Raw reads the next n bytes, a length the caller has bounded: a
// sub-slice of what is held, or, on an io.Reader, fresh memory grown
// chunk by chunk as the bytes arrive.
func (d *Decoder) Raw(field string, n int) []byte {
	if d.err != nil {
		return nil
	}
	if n <= len(d.buf) {
		b := d.buf[:n:n]
		d.buf = d.buf[n:]
		d.off += n
		return b
	}
	if d.r == nil || d.rerr != nil {
		d.Fail(field, d.short())
		return nil
	}
	b := append(make([]byte, 0, min(n, chunk)), d.buf...)
	for len(b) < n {
		start := len(b)
		b = append(b, make([]byte, min(n-start, chunk))...)
		if k, err := io.ReadFull(d.r, b[start:]); err != nil {
			d.buf, d.rerr = b[:start+k], err
			d.Fail(field, d.short())
			return nil
		}
	}
	d.buf = nil
	d.off += n
	return b
}

// short is the cause of a read past the bytes that arrived.
func (d *Decoder) short() error {
	switch {
	case d.rerr != nil && d.rerr != io.EOF && d.rerr != io.ErrUnexpectedEOF:
		return d.rerr
	case d.off == 0 && len(d.buf) == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// uint reads a width-byte unsigned field.
func (d *Decoder) uint(field string, width int) uint64 {
	var v uint64
	b := d.Raw(field, width)
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func (d *Decoder) U8(field string) uint8    { return uint8(d.uint(field, 1)) }
func (d *Decoder) U16(field string) uint16  { return uint16(d.uint(field, 2)) }
func (d *Decoder) U32(field string) uint32  { return uint32(d.uint(field, 4)) }
func (d *Decoder) U64(field string) uint64  { return d.uint(field, 8) }
func (d *Decoder) F32(field string) float32 { return math.Float32frombits(d.U32(field)) }
func (d *Decoder) F64(field string) float64 { return math.Float64frombits(d.U64(field)) }

// Len reads a width-byte unsigned length or count and fails it past
// cap.
func (d *Decoder) Len(field string, width int, cap int64) int {
	v := d.uint(field, width)
	if cap < 0 || v > uint64(cap) {
		d.Fail(field, &CapError{N: int64(v), Cap: cap})
		return 0
	}
	return int(v)
}

// Bytes reads a width-byte length prefix bounded by cap and the bytes
// it announces.
func (d *Decoder) Bytes(field string, width int, cap int64) []byte {
	return d.Raw(field, d.Len(field, width, cap))
}

// String is Bytes as a string.
func (d *Decoder) String(field string, width int, cap int64) string {
	return string(d.Bytes(field, width, cap))
}

// F32s reads n float32 values and appends them to dst; a nil dst
// yields a fresh, non-nil slice. The caller bounds n. Values are read
// in chunks, so a lying n fails on the short stream before dst grows
// far.
func (d *Decoder) F32s(field string, n int, dst []float32) []float32 {
	if dst == nil {
		dst = make([]float32, 0, min(n, chunk/4))
	}
	for n > 0 && d.err == nil {
		k := min(n, chunk/4)
		raw := d.Raw(field, 4*k)
		if raw == nil {
			break
		}
		at := len(dst)
		dst = slices.Grow(dst, k)[:at+k]
		for i := range dst[at:] {
			dst[at+i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		n -= k
	}
	return dst
}

// ReadMagicVersion reads a message's magic tag and version byte and
// fails unless they are magic and version — the one version check of
// every format. A wrong version fails with a *VersionError.
func (d *Decoder) ReadMagicVersion(magic string, version byte) {
	d.Fill(len(magic) + 1)
	if m := d.Raw("magic", len(magic)); d.err == nil && string(m) != magic {
		d.Fail("magic", fmt.Errorf("got %q, want %q", m, magic))
	}
	if v := d.U8("version"); d.err == nil && v != version {
		d.Fail("version", &VersionError{Got: v, Want: version})
	}
}

// End fails a message that holds bytes past its last field.
func (d *Decoder) End() {
	if d.err == nil && len(d.buf) > 0 {
		d.Fail("end", fmt.Errorf("%d trailing bytes", len(d.buf)))
	}
}

// Fail records err against field unless an error is recorded already.
func (d *Decoder) Fail(field string, err error) { record(&d.err, d.format, field, err) }

// Err returns the first error, or nil.
func (d *Decoder) Err() error { return d.err }
