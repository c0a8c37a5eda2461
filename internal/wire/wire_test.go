package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
)

// sample writes one message with every field kind.
func sample() Encoder {
	e := Encoder{Format: "test: msg"}
	e.MagicVersion("TEST", 3)
	e.U8(0xAB)
	e.U16(0xBEEF)
	e.U32(0xDEADBEEF)
	e.U64(0x0123456789ABCDEF)
	e.F32(-1.5)
	e.F64(math.Pi)
	e.Bytes("blob", 2, 16, []byte("hello"))
	e.String("name", 1, 8, "wire")
	e.Len("count", 4, 3, 3)
	e.F32s([]float32{1, -2, 0.25})
	return e
}

// readSample decodes sample's message, checking every value.
func readSample(t *testing.T, d *Decoder) []byte {
	t.Helper()
	d.ReadMagicVersion("TEST", 3)
	d.Fill(1 + 2 + 4 + 8)
	if v := d.U8("u8"); v != 0xAB {
		t.Errorf("U8 %#x", v)
	}
	if v := d.U16("u16"); v != 0xBEEF {
		t.Errorf("U16 %#x", v)
	}
	if v := d.U32("u32"); v != 0xDEADBEEF {
		t.Errorf("U32 %#x", v)
	}
	if v := d.U64("u64"); v != 0x0123456789ABCDEF {
		t.Errorf("U64 %#x", v)
	}
	if v := d.F32("f32"); v != -1.5 {
		t.Errorf("F32 %v", v)
	}
	if v := d.F64("f64"); v != math.Pi {
		t.Errorf("F64 %v", v)
	}
	blob := d.Bytes("blob", 2, 16)
	if string(blob) != "hello" {
		t.Errorf("Bytes %q", blob)
	}
	if v := d.String("name", 1, 8); v != "wire" {
		t.Errorf("String %q", v)
	}
	n := d.Len("count", 4, 3)
	if v := d.F32s("values", n, nil); len(v) != 3 || v[0] != 1 || v[1] != -2 || v[2] != 0.25 {
		t.Errorf("F32s %v", v)
	}
	d.End()
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	return blob
}

// countingReader counts the Read calls that reach r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// TestRoundTrip: what an Encoder writes, a Decoder reads back over a
// []byte — handing out sub-slices, without allocating — and over an
// io.Reader, where a Fill window costs one read and the decoder stops
// exactly at the end of the message.
func TestRoundTrip(t *testing.T) {
	e := sample()
	if e.Err() != nil {
		t.Fatal(e.Err())
	}
	d := NewBytes("test: msg", e.Buf)
	if blob := readSample(t, &d); &blob[0] != &e.Buf[bytes.Index(e.Buf, []byte("hello"))] {
		t.Error("Bytes copied on the []byte path")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		d := NewBytes("test: msg", e.Buf)
		d.ReadMagicVersion("TEST", 3)
		d.Fill(15)
		d.U8("u8")
		d.U16("u16")
		d.U32("u32")
		d.U64("u64")
		d.F32("f32")
		d.F64("f64")
		d.Bytes("blob", 2, 16)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	}); allocs != 0 {
		t.Errorf("the []byte path allocates %v times", allocs)
	}

	stream := append(append([]byte(nil), e.Buf...), "NEXT"...)
	cr := &countingReader{r: bytes.NewReader(stream)}
	d = NewReader("test: msg", cr)
	readSample(t, &d)
	// magic+version, the Fill window, f32, f64, two per length-prefixed
	// field, the count, the values.
	if want := 1 + 1 + 2 + 2 + 2 + 1 + 1; cr.reads != want {
		t.Errorf("%d reads, want %d", cr.reads, want)
	}
	if rest, _ := io.ReadAll(cr.r); string(rest) != "NEXT" {
		t.Errorf("decoder consumed past its message: %q left", rest)
	}
}

// TestShortReads: a message cut before its first byte wraps io.EOF,
// one cut later io.ErrUnexpectedEOF, naming the field the cut falls in
// on both paths, a Fill window cut short included; any other reader
// error is passed on.
func TestShortReads(t *testing.T) {
	e := sample()
	for _, c := range []struct {
		cut   int
		field string
		want  error
	}{
		{0, "magic", io.EOF},
		{2, "magic", io.ErrUnexpectedEOF},
		{4, "version", io.ErrUnexpectedEOF},
		{5 + 1 + 2 + 1, "u32", io.ErrUnexpectedEOF},
		{len(e.Buf) - 1, "values", io.ErrUnexpectedEOF},
	} {
		for _, d := range []Decoder{
			NewBytes("test: msg", e.Buf[:c.cut]),
			NewReader("test: msg", bytes.NewReader(e.Buf[:c.cut])),
		} {
			d.ReadMagicVersion("TEST", 3)
			d.Fill(15)
			d.U8("u8")
			d.U16("u16")
			d.U32("u32")
			d.U64("u64")
			d.F32("f32")
			d.F64("f64")
			d.Bytes("blob", 2, 16)
			d.String("name", 1, 8)
			d.F32s("values", d.Len("count", 4, 3), nil)
			var fe *FieldError
			if !errors.As(d.Err(), &fe) || fe.Field != c.field || !errors.Is(fe, c.want) {
				t.Errorf("cut at %d: %v, want %s wrapping %v", c.cut, d.Err(), c.field, c.want)
			}
		}
	}
	d := NewReader("test: msg", io.MultiReader(strings.NewReader("TE"), errReader{}))
	d.ReadMagicVersion("TEST", 3)
	if !errors.Is(d.Err(), os.ErrDeadlineExceeded) {
		t.Errorf("reader error: %v", d.Err())
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, os.ErrDeadlineExceeded }

// TestCaps: the encoder refuses a length past its cap and the decoder
// rejects one, both naming the field; the first error sticks.
func TestCaps(t *testing.T) {
	var e Encoder
	e.String("name", 1, 3, "four")
	e.Len("count", 2, 9, -1)
	var ce *CapError
	if fe, ok := e.Err().(*FieldError); !ok || fe.Field != "name" || !errors.As(fe, &ce) || ce.N != 4 || ce.Cap != 3 {
		t.Fatalf("encoder: %v", e.Err())
	}
	if err := e.Send(io.Discard); err != e.Err() {
		t.Fatalf("Send of a refused message: %v", err)
	}
	d := NewBytes("test: msg", e.Buf)
	d.String("name", 1, 3)
	d.U8("after")
	if fe, ok := d.Err().(*FieldError); !ok || fe.Field != "name" || !errors.As(fe, &ce) {
		t.Fatalf("decoder: %v", d.Err())
	}
}

// TestBoundedRead: a length within its cap but far beyond the stream
// fails on the stream, allocating about one chunk, not the length.
func TestBoundedRead(t *testing.T) {
	var e Encoder
	e.Len("blob", 4, 1<<30, 1<<30)
	e.Buf = append(e.Buf, "short"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewReader("test: msg", bytes.NewReader(e.Buf))
	d.Bytes("blob", 4, 1<<30)
	runtime.ReadMemStats(&after)
	if !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("got %v", d.Err())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*chunk {
		t.Errorf("allocated %d bytes for a %d-byte stream", grew, len(e.Buf))
	}
}

// TestVersionAndEnd: a wrong version fails with the version it spoke;
// bytes past the last field fail End.
func TestVersionAndEnd(t *testing.T) {
	var e Encoder
	e.MagicVersion("TEST", 7)
	d := NewBytes("test: msg", e.Buf)
	d.ReadMagicVersion("TEST", 3)
	var ve *VersionError
	if !errors.As(d.Err(), &ve) || ve.Got != 7 || ve.Want != 3 {
		t.Fatalf("version: %v", d.Err())
	}
	d = NewBytes("test: msg", e.Buf)
	d.ReadMagicVersion("TEXT", 7)
	if fe, ok := d.Err().(*FieldError); !ok || fe.Field != "magic" {
		t.Fatalf("magic: %v", d.Err())
	}
	d = NewBytes("test: msg", append(e.Buf, 0))
	d.ReadMagicVersion("TEST", 7)
	d.End()
	if fe, ok := d.Err().(*FieldError); !ok || fe.Field != "end" {
		t.Fatalf("trailing byte: %v", d.Err())
	}
}

// TestF32s: decoding into a caller's buffer reuses it, and a nil dst
// yields a non-nil slice even for no values.
func TestF32s(t *testing.T) {
	var e Encoder
	e.F32s([]float32{3, 4})
	dst := make([]float32, 2)
	d := NewBytes("test: msg", e.Buf)
	if got := d.F32s("values", 2, dst[:0]); &got[0] != &dst[0] || dst[1] != 4 {
		t.Errorf("F32s into dst: %v", got)
	}
	d = NewBytes("test: msg", nil)
	if got := d.F32s("values", 0, nil); got == nil || d.Err() != nil {
		t.Errorf("F32s of none: %v, %v", got, d.Err())
	}
}
