package quant

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"repro/internal/wire"
	"repro/rng"
)

// frameTestCodecs covers every codec family plus parameter variants.
func frameTestCodecs() []Codec {
	var all []Codec
	all = append(all, PaperCodecs()...)
	all = append(all, ExtensionCodecs()...)
	return all
}

// frameVec returns a deterministic random vector (the shared randVec
// helper lives in quant_test.go).
func frameVec(n int, seed uint64) []float32 {
	return randVec(rng.New(seed), n)
}

// TestFrameRoundTrip: EncodeTo writes a frame that DecodeAny decodes to
// exactly the bytes the headerless path produces, for every codec, with
// no configuration shared beyond the frame itself.
func TestFrameRoundTrip(t *testing.T) {
	shape := Shape{Rows: 32, Cols: 40}
	n := shape.Len()
	src := frameVec(n, 7)
	for _, c := range frameTestCodecs() {
		// Two encoders with identical state: one frames, one does not.
		framed := c.NewEncoder(n, shape, 99)
		plain := c.NewEncoder(n, shape, 99)

		var buf bytes.Buffer
		wrote, err := framed.EncodeTo(&buf, src)
		if err != nil {
			t.Fatalf("%s: EncodeTo: %v", c.Name(), err)
		}
		if wrote != buf.Len() {
			t.Fatalf("%s: EncodeTo reported %d bytes, wrote %d", c.Name(), wrote, buf.Len())
		}
		wantOverhead := FrameOverhead(c.Name())
		if got := buf.Len() - c.EncodedBytes(n, shape); got != wantOverhead {
			t.Fatalf("%s: frame overhead %d, want %d", c.Name(), got, wantOverhead)
		}

		got, err := DecodeAny(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: DecodeAny: %v", c.Name(), err)
		}
		want := make([]float32, n)
		if err := c.Decode(plain.Encode(src), n, shape, want); err != nil {
			t.Fatalf("%s: reference decode: %v", c.Name(), err)
		}
		if len(got) != n {
			t.Fatalf("%s: DecodeAny returned %d values, want %d", c.Name(), len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: element %d: framed %v vs headerless %v", c.Name(), i, got[i], want[i])
			}
		}

		// The frame opens with the constant header a receiver that knows
		// (codec, n, shape) expects, and that header describes it.
		hdr := FrameHeader(c, n, shape)
		if err := MatchHeader(buf.Bytes()[:len(hdr)], hdr); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		d := wire.NewBytes(frameFormat, hdr)
		if h := readHeader(&d); d.Err() != nil || h != (header{c.Name(), shape, n, c.EncodedBytes(n, shape)}) {
			t.Fatalf("%s: header %+v (%v) does not describe the frame", c.Name(), h, d.Err())
		}
	}
}

// TestFrameStateAdvancesLikeEncode: EncodeTo must advance error-feedback
// state exactly as Encode does, so mixing the two paths (local fast
// path, remote framed path) keeps residuals consistent.
func TestFrameStateAdvancesLikeEncode(t *testing.T) {
	shape := Shape{Rows: 16, Cols: 8}
	n := shape.Len()
	c := NewOneBitReshaped(64)
	framed := c.NewEncoder(n, shape, 0)
	plain := c.NewEncoder(n, shape, 0)
	for round := 0; round < 4; round++ {
		src := frameVec(n, uint64(round+1))
		var buf bytes.Buffer
		if _, err := framed.EncodeTo(&buf, src); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeAny(&buf)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float32, n)
		if err := c.Decode(plain.Encode(src), n, shape, want); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d element %d: %v vs %v (residual state diverged)", round, i, got[i], want[i])
			}
		}
	}
}

// TestDecodeAnyRejectsBadFrames: every corruption returns an error —
// wrong magic, future version, unknown codec, inconsistent lengths,
// truncation at each boundary — and never panics.
func TestDecodeAnyRejectsBadFrames(t *testing.T) {
	shape := Shape{Rows: 8, Cols: 8}
	n := shape.Len()
	c := NewQSGD(4, 32, MaxNorm)
	var buf bytes.Buffer
	if _, err := c.NewEncoder(n, shape, 1).EncodeTo(&buf, frameVec(n, 3)); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		b := append([]byte(nil), valid...)
		b = mutate(b)
		if _, err := DecodeAny(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: decoded a corrupted frame", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("future version", func(b []byte) []byte { b[4] = FrameVersion + 1; return b })
	corrupt("zero version", func(b []byte) []byte { b[4] = 0; return b })
	corrupt("mangled codec name", func(b []byte) []byte { b[6] = 'z'; return b })
	corrupt("payload length lie", func(b []byte) []byte {
		b[frameFixedBytes+len(c.Name())-4]++ // low byte of payloadLen
		return b
	})
	corrupt("element count lie", func(b []byte) []byte {
		b[frameFixedBytes+len(c.Name())-8]++ // low byte of n
		return b
	})
	for cut := 1; cut < len(valid); cut += 7 {
		cut := cut
		corrupt("truncated", func(b []byte) []byte { return b[:len(b)-cut] })
	}
	if _, err := DecodeAny(bytes.NewReader(nil)); err == nil {
		t.Error("decoded an empty stream")
	}
}

// TestDecodeAnyCapsElementCount: a header announcing an absurd tensor
// size is rejected before any allocation is attempted. The header is
// hand-crafted because the encode side (appendHeader) refuses to build
// one — that refusal is asserted too.
func TestDecodeAnyCapsElementCount(t *testing.T) {
	huge := appendHeader(nil, "32bit", Shape{Rows: 1, Cols: 1}, 1, 4)
	// Overwrite the n and payloadLen fields with an over-cap count.
	off := frameFixedBytes + len("32bit") - 8
	binary.LittleEndian.PutUint32(huge[off:], uint32(MaxFrameElements+1))
	binary.LittleEndian.PutUint32(huge[off+4:], uint32(4*(MaxFrameElements+1)))
	if _, err := DecodeAny(bytes.NewReader(huge)); err == nil {
		t.Fatal("accepted a frame above MaxFrameElements")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("appendHeader built a frame above MaxFrameElements")
		}
	}()
	appendHeader(nil, "32bit", Shape{Rows: 1, Cols: MaxFrameElements + 1},
		MaxFrameElements+1, 4*(MaxFrameElements+1))
}

// TestMatchHeader: a received header passes only as the very bytes the
// receiver expects. Headers of equal length that differ in codec,
// count, shape or payload fail with both sides described; a cut header
// fails naming the field the cut falls in.
func TestMatchHeader(t *testing.T) {
	shape := Shape{Rows: 200, Cols: 1}
	want := FrameHeader(MustParse("qsgd4b512"), 200, shape)
	if err := MatchHeader(want, want); err != nil {
		t.Fatalf("the expected header fails: %v", err)
	}
	for _, tc := range []struct {
		got  []byte
		says []string
	}{
		{FrameHeader(MustParse("qsgd4b256"), 200, shape), []string{"qsgd4b256", "want qsgd4b512"}},
		{FrameHeader(MustParse("qsgd4b512"), 199, shape), []string{"n=199", "want qsgd4b512 n=200"}},
		{FrameHeader(MustParse("qsgd4b512"), 200, Shape{Rows: 100, Cols: 2}), []string{"shape=100x2"}},
		{FrameHeader(MustParse("qsgd8b512"), 200, shape), []string{"qsgd8b512", "payload=", "want qsgd4b512"}},
		{want[:len(want)-3], []string{"payload length"}},
		{append(append([]byte(nil), want[:6]...), "qsgd3b512"...), []string{"shape rows"}},
	} {
		err := MatchHeader(tc.got, want)
		if err == nil {
			t.Fatalf("header %x passes as %x", tc.got, want)
		}
		for _, s := range tc.says {
			if !strings.Contains(err.Error(), s) {
				t.Errorf("header %x: error %q does not say %q", tc.got, err, s)
			}
		}
	}
}

// FuzzDecodeAny: arbitrary byte streams must produce errors, never
// panics or runaway allocations.
func FuzzDecodeAny(f *testing.F) {
	shape := Shape{Rows: 4, Cols: 8}
	n := shape.Len()
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i) - 15.5
	}
	for _, c := range []Codec{FP32{}, OneBit{}, NewOneBitReshaped(64), NewQSGD(4, 16, MaxNorm), NewTopK(0.25)} {
		var buf bytes.Buffer
		if _, err := c.NewEncoder(n, shape, 5).EncodeTo(&buf, src); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2])
	}
	f.Add([]byte{})
	f.Add([]byte("not a frame at all"))
	// A valid frame, the same with a lying count, and renamed to a codec
	// of the same name length but another payload size.
	var primer bytes.Buffer
	if _, err := NewQSGD(4, 16, MaxNorm).NewEncoder(n, shape, 6).EncodeTo(&primer, src); err != nil {
		f.Fatal(err)
	}
	f.Add(primer.Bytes())
	lie := append([]byte(nil), primer.Bytes()...)
	lie[6+len("qsgd4b16")+8]++ // low byte of n
	f.Add(lie)
	renamed := append([]byte(nil), primer.Bytes()...)
	renamed[10] = '8' // qsgd8b16: same name length, other payload size
	f.Add(renamed)
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, err := DecodeAny(bytes.NewReader(data))
		if err == nil {
			// A valid frame must at least re-serialise consistently.
			if len(vals) > MaxFrameElements {
				t.Fatalf("decoded %d elements above cap", len(vals))
			}
		}
		// Truncations of valid frames must also never panic.
		if len(data) > 4 {
			_, _ = DecodeAny(io.LimitReader(bytes.NewReader(data), int64(len(data)/2)))
		}
	})
}
