package quant

import (
	"testing"
)

// Native fuzz targets for the wire decoders. Under plain `go test` the
// seed corpus runs as regression tests; `go test -fuzz=FuzzX` explores
// further. The invariant in every case: Decode must either return an
// error or fill dst — it must never panic or index out of range, no
// matter what bytes arrive (a corrupted peer must not crash training) —
// and DecodeAdd must fail where Decode does and otherwise give the bits
// of Decode followed by tensor.Add.

func fuzzSeeds(f *testing.F) {
	f.Add([]byte{}, uint16(1))
	f.Add([]byte{0, 0, 0, 0}, uint16(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}, uint16(7))
	f.Add(make([]byte, 64), uint16(32))
	f.Add([]byte{0x80, 0x3f, 0, 0, 0xaa, 0x55, 0xaa, 0x55, 1, 0, 0, 0}, uint16(13))
}

func fuzzDecode(f *testing.F, c Codec) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, wire []byte, nRaw uint16) {
		n := int(nRaw%512) + 1
		shape := Shape{Rows: n%31 + 1, Cols: (n / (n%31 + 1)) + 1}
		dst := make([]float32, n)
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("%s: decode panicked: %v", c.Name(), p)
			}
		}()
		_ = c.Decode(wire, n, shape, dst) // error return is fine
		// The accumulator: the wire's own floats, over again.
		acc := make([]float32, n)
		for i, v := 0, fuzzFloats(wire); len(v) > 0 && i < n; i += len(v) {
			copy(acc[i:], v)
		}
		assertDecodeAdd(t, c, wire, n, shape, acc)
	})
}

func FuzzQSGDDecode(f *testing.F)   { fuzzDecode(f, NewQSGD(4, 64, MaxNorm)) }
func FuzzQSGD2Decode(f *testing.F)  { fuzzDecode(f, NewQSGD(2, 128, MaxNorm)) }
func FuzzOneBitDecode(f *testing.F) { fuzzDecode(f, OneBit{}) }
func FuzzOneBitReshapedDecode(f *testing.F) {
	fuzzDecode(f, NewOneBitReshaped(64))
}
func FuzzTopKDecode(f *testing.F) { fuzzDecode(f, NewTopK(0.1)) }
func FuzzFP32Decode(f *testing.F) { fuzzDecode(f, FP32{}) }
func FuzzExponentialDecode(f *testing.F) {
	fuzzDecode(f, NewQSGDScheme(8, 256, MaxNorm, Exponential))
}

// FuzzPolicyRoundTrip mirrors the frame fuzz for the policy grammar:
// ParsePolicy must never panic, and whenever it accepts an input, the
// canonical Name() must re-parse to the same canonical spelling — the
// invariant cluster negotiation and every capability exchange rely on.
func FuzzPolicyRoundTrip(f *testing.F) {
	f.Add("32bit")
	f.Add("qsgd4b512")
	f.Add("qsgd4;minfrac=0.99")
	f.Add("qsgd4b512;minfrac=0.95;embedding=topk0.001;*.b=32bit")
	f.Add("1bit*;conv?.W=qsgd8")
	f.Add("topk0.01;minfrac=1;bn1=fp32")
	f.Add("qsgd4;;")
	f.Add("florp;a=b")
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePolicy(name)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		canon := p.Name()
		rt, err := ParsePolicy(canon)
		if err != nil {
			t.Fatalf("accepted %q but canonical %q does not re-parse: %v", name, canon, err)
		}
		if rt.Name() != canon {
			t.Fatalf("%q: canonical name not a fixed point: %q -> %q", name, canon, rt.Name())
		}
	})
}
