package health

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// This file adds the telemetry extension to the control-plane protocol:
// a fourth message kind that carries a compact, versioned snapshot of a
// rank's convergence signals — per-step loss, per-tensor gradient norms
// and live quantisation quality — so the coordinator can aggregate a
// cluster-wide view without touching the data mesh.
//
// Unlike ping/abort/bye, telemetry is framed as an *extension kind*: a
// uint32 body length follows the header, so a build that does not
// understand a given extension kind can skip its body and keep the
// stream alive instead of declaring the peer dead. The body itself
// opens with its own snapshot version byte; an unknown snapshot version
// is delivered as "no telemetry" and ignored, which is what keeps a
// newer peer's richer snapshots from killing an older monitor.
//
//	telemetry (every rank → every peer, each TelemetryEvery-th step):
//	  header as above, kind 3
//	  uint32  body length (bounded by maxTelemetryBody)
//	  body:
//	    uint8   snapshot version (currently 1)
//	    uint32  sender rank
//	    uint64  step index
//	    uint64  loss (float64 bits)
//	    uint64  compute wall time of that step (ns)
//	    uint64  exchange wall time of that step (ns)
//	    uint16  tensor count (bounded by maxTelemetryTensors)
//	    per tensor:
//	      uint8   name length
//	      ...     name bytes
//	      uint64  gradient L2 norm (float64 bits)
//	      uint64  gradient inf norm (float64 bits)
//	      uint64  quantisation RMSE (float64 bits)
//	      uint64  compression ratio raw/wire (float64 bits)
//
// Telemetry bytes ride the same sockets as pings and are counted under
// ControlBytes — the data fabric's byte accounting stays untouched.
const (
	// telemetryVersion is the snapshot body version. Bump it when the
	// snapshot layout changes; old monitors ignore unknown versions.
	telemetryVersion = 1

	// maxTelemetryTensors bounds the per-snapshot tensor table.
	maxTelemetryTensors = 1024

	// maxTensorNameLen bounds one tensor name on the wire.
	maxTensorNameLen = 255

	// maxTelemetryBody bounds the whole snapshot body. Comfortably above
	// maxTelemetryTensors full-length entries would be ~300 KiB; a rank
	// that needs more than this is misusing the control plane.
	maxTelemetryBody = 1 << 19
)

// TensorTelemetry is one tensor's convergence and quantisation-quality
// sample inside a TelemetrySnapshot.
type TensorTelemetry struct {
	// Name is the tensor's exchange name (e.g. "dense1.w").
	Name string
	// GradL2 and GradInf are the aggregated gradient's L2 and
	// max-absolute norms at the sampled step.
	GradL2, GradInf float64
	// RMSE is the quantisation root-mean-square error measured live
	// against the negotiated codec (quant.MeasureError).
	RMSE float64
	// Compression is the raw/wire byte ratio of the tensor's codec
	// (1 = full precision, 8 ≈ 4-bit, ~32 = 1-bit).
	Compression float64
}

// TelemetrySnapshot is one rank's periodic convergence digest. It rides
// the heartbeat control links (see Monitor.ReportTelemetry) and is what
// the cluster telemetry hub aggregates into /cluster/metrics.
type TelemetrySnapshot struct {
	// Step is the 1-based training step the snapshot was taken at.
	Step int64
	// Loss is the mean minibatch loss of that step.
	Loss float64
	// Compute and Exchange are the step's phase wall times — the same
	// split StepReport carries, duplicated here so a snapshot is
	// self-contained for dashboard consumers.
	Compute, Exchange time.Duration
	// Tensors holds the per-tensor samples, in exchange order.
	Tensors []TensorTelemetry
}

// appendU16w appends a little-endian uint16.
func appendU16w(buf []byte, v uint16) []byte {
	return append(buf, byte(v), byte(v>>8))
}

func appendF64w(buf []byte, v float64) []byte {
	return appendU64w(buf, math.Float64bits(v))
}

// ErrTelemetryBounds is wrapped by every rejection of a tensor
// inventory that telemetry snapshots cannot carry.
var ErrTelemetryBounds = errors.New("health: tensor inventory exceeds the telemetry wire bounds")

// CheckTelemetryNames reports whether telemetry snapshots over tensors
// with these names fit the wire: at most maxTelemetryTensors tensors,
// each name at most maxTensorNameLen bytes. Both bounds are fixed by a
// model's tensor inventory, so a trainer checks them once up front;
// encodeTelemetry applies the same check to every snapshot. The body
// bound cannot be exceeded by an inventory that passes.
func CheckTelemetryNames(names []string) error {
	return checkTelemetryNames(len(names), func(i int) string { return names[i] })
}

func checkTelemetryNames(n int, name func(i int) string) error {
	if n > maxTelemetryTensors {
		return fmt.Errorf("%w: %d tensors, the bound is %d", ErrTelemetryBounds, n, maxTelemetryTensors)
	}
	for i := 0; i < n; i++ {
		if nm := name(i); len(nm) > maxTensorNameLen {
			return fmt.Errorf("%w: tensor name %q is longer than %d bytes", ErrTelemetryBounds, nm, maxTensorNameLen)
		}
	}
	return nil
}

// encodeTelemetry assembles a telemetry message (header, body length,
// body) into buf. It rejects snapshots that violate the wire bounds
// rather than truncating silently.
func encodeTelemetry(buf []byte, from int, s TelemetrySnapshot) ([]byte, error) {
	if err := checkTelemetryNames(len(s.Tensors), func(i int) string { return s.Tensors[i].Name }); err != nil {
		return nil, err
	}
	buf = appendHeader(buf[:0], kindTelemetry)
	lenAt := len(buf)
	buf = appendU32w(buf, 0) // body length, patched below
	bodyAt := len(buf)
	buf = append(buf, telemetryVersion)
	buf = appendU32w(buf, uint32(from))
	buf = appendU64w(buf, uint64(s.Step))
	buf = appendF64w(buf, s.Loss)
	buf = appendU64w(buf, uint64(s.Compute.Nanoseconds()))
	buf = appendU64w(buf, uint64(s.Exchange.Nanoseconds()))
	buf = appendU16w(buf, uint16(len(s.Tensors)))
	for i := range s.Tensors {
		t := &s.Tensors[i]
		buf = append(buf, byte(len(t.Name)))
		buf = append(buf, t.Name...)
		buf = appendF64w(buf, t.GradL2)
		buf = appendF64w(buf, t.GradInf)
		buf = appendF64w(buf, t.RMSE)
		buf = appendF64w(buf, t.Compression)
	}
	body := len(buf) - bodyAt
	if body > maxTelemetryBody {
		return nil, fmt.Errorf("health: telemetry body is %d bytes, wire bound is %d", body, maxTelemetryBody)
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(body))
	return buf, nil
}

// decodeTelemetry parses a telemetry body. An unknown snapshot version
// returns ok=false with no error — the message is ignored, not fatal —
// while a malformed body of a known version is a decode error (the
// length framing already preserved the stream, so this only fires on a
// corrupted or lying sender).
func decodeTelemetry(body []byte) (from int, s TelemetrySnapshot, ok bool, err error) {
	if len(body) < 1 {
		return 0, s, false, fmt.Errorf("health: empty telemetry body")
	}
	if body[0] != telemetryVersion {
		return 0, s, false, nil
	}
	const fixed = 1 + 4 + 8 + 8 + 8 + 8 + 2
	if len(body) < fixed {
		return 0, s, false, fmt.Errorf("health: telemetry body truncated at %d bytes", len(body))
	}
	from = int(binary.LittleEndian.Uint32(body[1:]))
	s.Step = int64(binary.LittleEndian.Uint64(body[5:]))
	s.Loss = math.Float64frombits(binary.LittleEndian.Uint64(body[13:]))
	s.Compute = durationNS(body[21:])
	s.Exchange = durationNS(body[29:])
	n := int(binary.LittleEndian.Uint16(body[37:]))
	if n > maxTelemetryTensors {
		return 0, s, false, fmt.Errorf("health: telemetry snapshot claims %d tensors, wire bound is %d", n, maxTelemetryTensors)
	}
	rest := body[fixed:]
	s.Tensors = make([]TensorTelemetry, 0, n)
	for i := 0; i < n; i++ {
		if len(rest) < 1 {
			return 0, s, false, fmt.Errorf("health: telemetry tensor %d truncated", i)
		}
		nameLen := int(rest[0])
		rest = rest[1:]
		if len(rest) < nameLen+4*8 {
			return 0, s, false, fmt.Errorf("health: telemetry tensor %d truncated", i)
		}
		t := TensorTelemetry{Name: string(rest[:nameLen])}
		rest = rest[nameLen:]
		t.GradL2 = math.Float64frombits(binary.LittleEndian.Uint64(rest[0:]))
		t.GradInf = math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
		t.RMSE = math.Float64frombits(binary.LittleEndian.Uint64(rest[16:]))
		t.Compression = math.Float64frombits(binary.LittleEndian.Uint64(rest[24:]))
		rest = rest[32:]
		s.Tensors = append(s.Tensors, t)
	}
	if len(rest) != 0 {
		return 0, s, false, fmt.Errorf("health: telemetry body has %d trailing bytes", len(rest))
	}
	return from, s, true, nil
}
