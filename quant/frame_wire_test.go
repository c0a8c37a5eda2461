package quant

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/wire/wiretest"
)

// frameSample encodes one qsgd4b512 frame and lists its fields.
func frameSample(t *testing.T) ([]byte, wiretest.Layout) {
	shape := Shape{Rows: 8, Cols: 8}
	c := MustParse("qsgd4b512")
	var buf bytes.Buffer
	if _, err := c.NewEncoder(shape.Len(), shape, 1).EncodeTo(&buf, frameVec(shape.Len(), 3)); err != nil {
		t.Fatal(err)
	}
	l := wiretest.Magic(4).Add("codec name", 1+len(c.Name())).Add("shape rows", 4).Add("shape cols", 4).
		Add("element count", 4).Add("payload length", 4).Add("payload", c.EncodedBytes(shape.Len(), shape))
	return buf.Bytes(), l
}

// frameDecoders are the reader and the []byte paths over one frame.
var frameDecoders = map[string]func([]byte) error{
	"DecodeAny": func(b []byte) error {
		_, err := DecodeAny(bytes.NewReader(b))
		return err
	},
	"FrameDecoder": func(b []byte) error {
		_, err := new(FrameDecoder).Decode(b, make([]float32, 64))
		return err
	},
}

// TestFrameTruncation cuts a frame at every byte and expects both
// decoders to name the field the cut falls in; an element count one
// past its cap fails as a cap error naming it.
func TestFrameTruncation(t *testing.T) {
	if got := binary.LittleEndian.Uint32([]byte(frameMagic)); got != FrameMagic {
		t.Fatalf("frameMagic reads as %#x, FrameMagic is %#x", got, FrameMagic)
	}
	frame, layout := frameSample(t)
	for name, decode := range frameDecoders {
		t.Run(name, func(t *testing.T) {
			wiretest.Truncations(t, frame, layout, decode)
			wiretest.OverCap(t, frame, layout, "element count", 4, MaxFrameElements, decode)
		})
	}
}
