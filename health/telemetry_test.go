package health

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func sampleSnapshot() TelemetrySnapshot {
	return TelemetrySnapshot{
		Step:     42,
		Loss:     0.137,
		Compute:  3 * time.Millisecond,
		Exchange: time.Millisecond,
		Tensors: []TensorTelemetry{
			{Name: "dense1.w", GradL2: 1.25, GradInf: 0.5, RMSE: 0.0625, Compression: 7.876},
			{Name: "dense1.b", GradL2: 0.03125, GradInf: 0.015625, RMSE: 0, Compression: 1},
		},
	}
}

// TestTelemetryRoundTrip pins the telemetry encode/decode pair through
// the full readMessage path, including the length-prefix framing.
func TestTelemetryRoundTrip(t *testing.T) {
	snap := sampleSnapshot()
	wire, err := encodeTelemetry(nil, 3, snap)
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMessage(bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != kindTelemetry || !m.HasTelemetry || m.From != 3 {
		t.Fatalf("decoded kind=%d hasTelemetry=%v from=%d", m.Kind, m.HasTelemetry, m.From)
	}
	got := m.Telemetry
	if got.Step != snap.Step || got.Loss != snap.Loss ||
		got.Compute != snap.Compute || got.Exchange != snap.Exchange {
		t.Fatalf("scalar fields: got %+v want %+v", got, snap)
	}
	if len(got.Tensors) != len(snap.Tensors) {
		t.Fatalf("got %d tensors, want %d", len(got.Tensors), len(snap.Tensors))
	}
	for i := range snap.Tensors {
		if got.Tensors[i] != snap.Tensors[i] {
			t.Fatalf("tensor %d: got %+v want %+v", i, got.Tensors[i], snap.Tensors[i])
		}
	}
	// Special float values must survive the bits round trip too.
	snap.Loss = math.Inf(1)
	snap.Tensors[0].GradL2 = math.NaN()
	wire, err = encodeTelemetry(wire, 0, snap)
	if err != nil {
		t.Fatal(err)
	}
	m, err = readMessage(bytes.NewReader(wire))
	if err != nil || !m.HasTelemetry {
		t.Fatalf("special-float round trip: %+v, %v", m, err)
	}
	if !math.IsInf(m.Telemetry.Loss, 1) || !math.IsNaN(m.Telemetry.Tensors[0].GradL2) {
		t.Fatalf("special floats corrupted: %+v", m.Telemetry)
	}
}

// TestTelemetryUnknownVersionIgnored: a snapshot from a newer build
// (higher snapshot version byte) is delivered as "no telemetry", not an
// error — the stream survives and the next message still decodes. This
// is the old-version-peer compatibility contract.
func TestTelemetryUnknownVersionIgnored(t *testing.T) {
	wire, err := encodeTelemetry(nil, 1, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Patch the snapshot version byte (first body byte, after the
	// 6-byte header and 4-byte length prefix).
	wire[10] = telemetryVersion + 1
	stream := append(append([]byte(nil), wire...), encodeBye(nil, 1)...)
	r := bytes.NewReader(stream)
	m, err := readMessage(r)
	if err != nil {
		t.Fatalf("unknown snapshot version must not be fatal: %v", err)
	}
	if m.Kind != kindTelemetry || m.HasTelemetry {
		t.Fatalf("want skipped telemetry message, got %+v", m)
	}
	if m, err = readMessage(r); err != nil || m.Kind != kindBye {
		t.Fatalf("stream desynchronised after skipped telemetry: %+v, %v", m, err)
	}
}

// TestTelemetryUnknownExtensionKindSkipped: any extension kind above
// telemetry is length-framed, so a build that predates it skips the
// body and keeps reading — unknown *fixed* kinds below the extension
// range stay fatal.
func TestTelemetryUnknownExtensionKindSkipped(t *testing.T) {
	future := wire.Encoder{Buf: appendHeader(nil, kindTelemetry+5)}
	future.Bytes("body", 4, maxExtensionBody, []byte{0xAA, 0xBB, 0xCC})
	stream := append(future.Buf, encodeBye(nil, 2)...)
	r := bytes.NewReader(stream)
	m, err := readMessage(r)
	if err != nil {
		t.Fatalf("unknown extension kind must not be fatal: %v", err)
	}
	if m.HasTelemetry {
		t.Fatalf("unknown extension kind decoded as telemetry: %+v", m)
	}
	if m, err = readMessage(r); err != nil || m.Kind != kindBye || m.From != 2 {
		t.Fatalf("stream desynchronised after skipped extension: %+v, %v", m, err)
	}
}

// TestTelemetryOversizedAndMalformedRejected: wire bounds hold on both
// sides — encode refuses snapshots that would violate them, and decode
// refuses length claims and bodies that do.
func TestTelemetryOversizedAndMalformedRejected(t *testing.T) {
	// Encoder: tensor table past the bound.
	big := TelemetrySnapshot{Tensors: make([]TensorTelemetry, maxTelemetryTensors+1)}
	if _, err := encodeTelemetry(nil, 0, big); err == nil {
		t.Fatal("encode accepted a tensor table past the wire bound")
	}
	// Encoder: tensor name past the bound.
	long := TelemetrySnapshot{Tensors: []TensorTelemetry{{Name: strings.Repeat("x", maxTensorNameLen+1)}}}
	if _, err := encodeTelemetry(nil, 0, long); err == nil {
		t.Fatal("encode accepted an oversized tensor name")
	}
	// Decoder: a length prefix past the extension bound is corruption.
	over := wire.Encoder{Buf: appendHeader(nil, kindTelemetry)}
	over.U32(maxExtensionBody + 1)
	if _, err := readMessage(bytes.NewReader(over.Buf)); err == nil {
		t.Fatal("decoder accepted an oversized extension body length")
	}
	// Decoder: a tensor count past the bound inside a well-framed body.
	wire, err := encodeTelemetry(nil, 0, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(wire[10+37:], maxTelemetryTensors+1)
	if _, err := readMessage(bytes.NewReader(wire)); err == nil {
		t.Fatal("decoder accepted a tensor count past the wire bound")
	}
	// Decoder: a truncated tensor table (count says 2, body holds 1).
	wire, err = encodeTelemetry(nil, 0, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(wire[10+37:], 3)
	if _, err := readMessage(bytes.NewReader(wire)); err == nil {
		t.Fatal("decoder accepted a truncated tensor table")
	}
	// Decoder: trailing garbage after the declared tensors.
	wire, err = encodeTelemetry(nil, 0, sampleSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	wire = append(wire, 0xEE)
	binary.LittleEndian.PutUint32(wire[6:], uint32(len(wire)-10))
	if _, err := readMessage(bytes.NewReader(wire)); err == nil {
		t.Fatal("decoder accepted trailing bytes after the tensor table")
	}
}

// TestMonitorTelemetryExchange: ReportTelemetry on one rank reaches
// every peer's Telemetry table and OnTelemetry observer over the live
// heartbeat links, the local observer fires synchronously, and the
// bytes land in ControlBytes.
func TestMonitorTelemetryExchange(t *testing.T) {
	conns := controlMesh(t, 3)
	ms := startMonitors(t, conns, Config{Interval: 20 * time.Millisecond, Timeout: 2 * time.Second})
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()

	type delivery struct {
		peer int
		snap TelemetrySnapshot
	}
	got := make(chan delivery, 8)
	ms[1].OnTelemetry(func(peer int, s TelemetrySnapshot) { got <- delivery{peer, s} })

	// The local observer fires synchronously from ReportTelemetry.
	local := sampleSnapshot()
	local.Step = 7
	if err := ms[1].ReportTelemetry(local); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-got:
		if d.peer != 1 || d.snap.Step != 7 {
			t.Fatalf("local delivery: peer=%d step=%d", d.peer, d.snap.Step)
		}
	default:
		t.Fatal("ReportTelemetry did not invoke the local observer synchronously")
	}

	// A remote snapshot arrives within a few heartbeat intervals.
	remote := sampleSnapshot()
	if err := ms[0].ReportTelemetry(remote); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case d := <-got:
			if d.peer != 0 {
				continue
			}
			if d.snap.Step != remote.Step || len(d.snap.Tensors) != len(remote.Tensors) {
				t.Fatalf("remote delivery: %+v", d.snap)
			}
			if s, ok := ms[1].Telemetry(0); !ok || s.Step != remote.Step {
				t.Fatalf("Telemetry(0) = %+v, %v", s, ok)
			}
			if ms[0].ControlBytes() == 0 {
				t.Fatal("telemetry bytes missing from ControlBytes")
			}
			// Rank 2 registered no observer but still holds the copy.
			waitTele := time.After(2 * time.Second)
			for {
				if s, ok := ms[2].Telemetry(0); ok && s.Step == remote.Step {
					return
				}
				select {
				case <-waitTele:
					t.Fatal("rank 2 never received rank 0's telemetry")
				case <-time.After(10 * time.Millisecond):
				}
			}
		case <-deadline:
			t.Fatal("rank 1 never received rank 0's telemetry")
		}
	}
}

// TestMonitorTelemetrySentOncePerPeer: one published snapshot is
// shipped to a peer exactly once, not once per heartbeat — republish
// bumps the sequence and ships again.
func TestMonitorTelemetrySentOncePerPeer(t *testing.T) {
	conns := controlMesh(t, 2)
	ms := startMonitors(t, conns, Config{Interval: 15 * time.Millisecond, Timeout: 2 * time.Second})
	defer func() {
		for _, m := range ms {
			m.Close()
		}
	}()

	var count int
	seen := make(chan int, 16)
	ms[1].OnTelemetry(func(peer int, s TelemetrySnapshot) {
		if peer == 0 {
			count++
			seen <- count
		}
	})
	snap := sampleSnapshot()
	if err := ms[0].ReportTelemetry(snap); err != nil {
		t.Fatal(err)
	}
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("first snapshot never arrived")
	}
	// Several heartbeat intervals of silence: no re-delivery.
	time.Sleep(10 * 15 * time.Millisecond)
	select {
	case n := <-seen:
		t.Fatalf("snapshot redelivered (%d deliveries)", n)
	default:
	}
	snap.Step++
	if err := ms[0].ReportTelemetry(snap); err != nil {
		t.Fatal(err)
	}
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("republished snapshot never arrived")
	}
}
