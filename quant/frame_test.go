package quant

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

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

		// DecodeFramed into a caller buffer agrees and surfaces the header.
		dst := make([]float32, n)
		h, err := DecodeFramed(buf.Bytes(), dst)
		if err != nil {
			t.Fatalf("%s: DecodeFramed: %v", c.Name(), err)
		}
		if h.Codec != c.Name() || h.N != n || h.Shape != shape || h.Version != FrameVersion {
			t.Fatalf("%s: header %+v does not describe the frame", c.Name(), h)
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

// TestFrameDecoderMatchesDecodeFramed: a FrameDecoder that has already
// resolved a codec must accept and reject exactly what the stateless
// DecodeFramed does — its memory is only ever a shortcut past Parse.
// Every corruption of TestDecodeAnyRejectsBadFrames is replayed against
// a decoder primed with the valid frame's codec, frames of other codecs
// interleave, and the steady state allocates nothing.
func TestFrameDecoderMatchesDecodeFramed(t *testing.T) {
	shape := Shape{Rows: 8, Cols: 8}
	n := shape.Len()
	frames := map[string][]byte{}
	for _, name := range []string{"qsgd4b512", "qsgd8b512", "1bit"} {
		var buf bytes.Buffer
		if _, err := MustParse(name).NewEncoder(n, shape, 1).EncodeTo(&buf, frameVec(n, 3)); err != nil {
			t.Fatal(err)
		}
		frames[name] = buf.Bytes()
	}
	valid := frames["qsgd4b512"]
	nameEnd := 6 + len("qsgd4b512")
	mutations := [][]byte{valid, frames["1bit"], frames["qsgd8b512"], {}, valid[:3], valid[:nameEnd-2], valid[:nameEnd+5]}
	for i := 0; i < len(valid); i += 3 {
		b := append([]byte(nil), valid...)
		b[i] ^= 0x41
		mutations = append(mutations, b, valid[:i])
	}
	var primed FrameDecoder
	for _, wire := range mutations {
		want, got := make([]float32, n), make([]float32, n)
		wantH, wantErr := DecodeFramed(wire, want)
		if _, err := primed.Decode(valid, make([]float32, n)); err != nil {
			t.Fatalf("priming decode: %v", err)
		}
		gotH, gotErr := primed.Decode(wire, got)
		if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
			t.Fatalf("frame %x: primed decoder says %v, DecodeFramed %v", wire, gotErr, wantErr)
		}
		if gotH != wantH {
			t.Fatalf("frame %x: primed decoder header %+v, DecodeFramed %+v", wire, gotH, wantH)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("frame %x: element %d: %v vs %v", wire, j, got[j], want[j])
			}
		}
	}
	dst := make([]float32, n)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := primed.Decode(valid, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("decoding a frame of the remembered codec allocates %v times, want 0", allocs)
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
	// Seeds for the remembered-codec path of FrameDecoder: the codec it
	// is primed with below, valid, with a lying length, and renamed.
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
		// A FrameDecoder that remembers another frame's codec must
		// agree with the stateless DecodeFramed on every input.
		if h, herr := ReadHeader(bytes.NewReader(data)); herr == nil && h.N <= 1<<16 {
			var primed FrameDecoder
			if _, err := primed.Decode(primer.Bytes(), make([]float32, n)); err != nil {
				t.Fatalf("priming decode: %v", err)
			}
			want, got := make([]float32, h.N), make([]float32, h.N)
			_, wantErr := DecodeFramed(data, want)
			_, gotErr := primed.Decode(data, got)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("primed FrameDecoder says %v, DecodeFramed %v", gotErr, wantErr)
			}
			for i := range want {
				if wantErr == nil && math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("element %d: primed FrameDecoder %v, DecodeFramed %v", i, got[i], want[i])
				}
			}
		}
		// Truncations of valid frames must also never panic.
		if len(data) > 4 {
			_, _ = DecodeAny(io.LimitReader(bytes.NewReader(data), int64(len(data)/2)))
		}
	})
}
