package health

import (
	"bytes"
	"flag"
	"io"
	"testing"
	"time"

	"repro/internal/wire/wiretest"
)

var updateWireGolden = flag.Bool("update-wire-golden", false,
	"rewrite testdata/wire_golden.json from the control messages this build encodes")

// controlSamples encodes one message of every control-plane kind.
func controlSamples(t testing.TB) map[string][]byte {
	t.Helper()
	tele, err := encodeTelemetry(nil, 1, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"ping":      encodePing(nil, 2, 41, StepReport{Step: 7, Compute: 3 * time.Millisecond, Exchange: 1500 * time.Microsecond}),
		"abort":     encodeAbort(nil, 0, 2, 1_700_000_000_123_456_789),
		"bye":       encodeBye(nil, 1),
		"telemetry": tele,
	}
}

// TestControlWireGolden pins the ping, abort, bye and telemetry
// encodings to testdata/wire_golden.json, and decodes each golden back
// into a message that re-encodes to the same bytes.
func TestControlWireGolden(t *testing.T) {
	golden := wiretest.Golden(t, "testdata/wire_golden.json", *updateWireGolden, controlSamples(t))
	for name, b := range golden {
		m, err := readMessage(bytes.NewReader(b))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		var again []byte
		switch m.Kind {
		case kindPing:
			again = encodePing(nil, m.From, m.Seq, m.Report)
		case kindAbort:
			again = encodeAbort(nil, m.From, m.Dead, m.LastSeenNano)
		case kindBye:
			again = encodeBye(nil, m.From)
		case kindTelemetry:
			if again, err = encodeTelemetry(nil, m.From, m.Telemetry); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
		if !bytes.Equal(again, b) {
			t.Errorf("%s: decode and re-encode gave %x, golden %x", name, again, b)
		}
	}
}

// controlLayouts lists every sample control message's fields in wire
// order. The telemetry body is one length-prefixed field of the
// message; telemetryBodyLayout lists the fields inside it.
func controlLayouts(msgs map[string][]byte) map[string]wiretest.Layout {
	header := func() wiretest.Layout { return wiretest.Magic(4).Add("kind", 1) }
	return map[string]wiretest.Layout{
		"ping": header().Add("sender rank", 4).Add("sequence", 8).Add("step", 8).
			Add("compute ns", 8).Add("exchange ns", 8),
		"abort":     header().Add("sender rank", 4).Add("dead rank", 4).Add("last seen", 8),
		"bye":       header().Add("sender rank", 4),
		"telemetry": header().Add("body", len(msgs["telemetry"])-6),
	}
}

func telemetryBodyLayout() wiretest.Layout {
	l := wiretest.Layout{}.Add("snapshot version", 1).Add("sender rank", 4).Add("step", 8).Add("loss", 8).
		Add("compute ns", 8).Add("exchange ns", 8).Add("tensors", 2)
	for _, tt := range sampleSnapshot().Tensors {
		l = l.Add("tensor name", 1+len(tt.Name)).Add("grad l2", 8).Add("grad inf", 8).
			Add("rmse", 8).Add("compression", 8)
	}
	return l
}

func readControl(b []byte) error {
	_, err := readMessage(bytes.NewReader(b))
	return err
}

func decodeTelemetryBody(b []byte) error {
	_, _, _, err := decodeTelemetry(b)
	return err
}

// TestControlTruncation cuts every control message — and the telemetry
// body inside its framing — at every byte and expects the decoder to
// name the field the cut falls in.
func TestControlTruncation(t *testing.T) {
	msgs := controlSamples(t)
	for name, layout := range controlLayouts(msgs) {
		t.Run(name, func(t *testing.T) { wiretest.Truncations(t, msgs[name], layout, readControl) })
	}
	t.Run("telemetry body", func(t *testing.T) {
		wiretest.Truncations(t, msgs["telemetry"][10:], telemetryBodyLayout(), decodeTelemetryBody)
	})
}

// TestControlCaps: a length one past its cap fails as a cap error
// naming the field.
func TestControlCaps(t *testing.T) {
	msgs := controlSamples(t)
	wiretest.OverCap(t, msgs["telemetry"], controlLayouts(msgs)["telemetry"], "body", 4, maxExtensionBody, readControl)
	wiretest.OverCap(t, msgs["telemetry"][10:], telemetryBodyLayout(), "tensors", 2, maxTelemetryTensors, decodeTelemetryBody)
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

// TestControlReadCalls: a control message costs one read for its
// header and one for a fixed body — two for an extension kind's length
// and body — on the socket a heartbeat arrives on.
func TestControlReadCalls(t *testing.T) {
	for name, b := range controlSamples(t) {
		want := 2
		if name == "telemetry" {
			want = 3
		}
		r := &countingReader{r: bytes.NewReader(b)}
		if _, err := readMessage(r); err != nil || r.reads != want {
			t.Errorf("%s: %d reads (%v), want %d", name, r.reads, err, want)
		}
	}
}
