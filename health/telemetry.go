package health

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
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

	// telemetryFormat names the snapshot body in decode errors.
	telemetryFormat = "health: telemetry"
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

// ErrTelemetryBounds is wrapped by every rejection of a tensor
// inventory that telemetry snapshots cannot carry.
var ErrTelemetryBounds = errors.New("health: tensor inventory exceeds the telemetry wire bounds")

// CheckTelemetryNames reports whether telemetry snapshots over tensors
// with these names fit the wire: at most maxTelemetryTensors tensors,
// each name at most maxTensorNameLen bytes. Both bounds are fixed by a
// model's tensor inventory, so a trainer checks them once up front;
// encodeTelemetry applies the same caps to every snapshot. The body
// bound cannot be exceeded by an inventory that passes.
func CheckTelemetryNames(names []string) error {
	s := TelemetrySnapshot{Tensors: make([]TensorTelemetry, len(names))}
	for i, nm := range names {
		s.Tensors[i].Name = nm
	}
	_, err := encodeTelemetry(nil, 0, s)
	return err
}

// encodeTelemetry assembles a telemetry message (header, body length,
// body) into buf. It rejects snapshots that violate the wire bounds
// rather than truncating silently.
func encodeTelemetry(buf []byte, from int, s TelemetrySnapshot) ([]byte, error) {
	e := wire.Encoder{Format: telemetryFormat, Buf: appendHeader(buf[:0], kindTelemetry)}
	lenAt := len(e.Buf)
	e.U32(0) // body length, patched below
	e.U8(telemetryVersion)
	e.U32(uint32(from))
	e.U64(uint64(s.Step))
	e.F64(s.Loss)
	e.U64(uint64(s.Compute.Nanoseconds()))
	e.U64(uint64(s.Exchange.Nanoseconds()))
	e.Len("tensors", 2, maxTelemetryTensors, len(s.Tensors))
	for i := range s.Tensors {
		t := &s.Tensors[i]
		e.String("tensor name", 1, maxTensorNameLen, t.Name)
		e.F64(t.GradL2)
		e.F64(t.GradInf)
		e.F64(t.RMSE)
		e.F64(t.Compression)
	}
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTelemetryBounds, err)
	}
	binary.LittleEndian.PutUint32(e.Buf[lenAt:], uint32(len(e.Buf)-lenAt-4))
	return e.Buf, nil
}

// decodeTelemetry parses a telemetry body. An unknown snapshot version
// returns ok=false with no error — the message is ignored, not fatal —
// while a malformed body of a known version is a decode error (the
// length framing already preserved the stream, so this only fires on a
// corrupted or lying sender).
func decodeTelemetry(body []byte) (from int, s TelemetrySnapshot, ok bool, err error) {
	d := wire.NewBytes(telemetryFormat, body)
	if v := d.U8("snapshot version"); d.Err() != nil || v != telemetryVersion {
		return 0, s, false, d.Err()
	}
	from = int(d.U32("sender rank"))
	s.Step = int64(d.U64("step"))
	s.Loss = d.F64("loss")
	s.Compute = time.Duration(d.U64("compute ns"))
	s.Exchange = time.Duration(d.U64("exchange ns"))
	n := d.Len("tensors", 2, maxTelemetryTensors)
	s.Tensors = make([]TensorTelemetry, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		s.Tensors = append(s.Tensors, TensorTelemetry{
			Name:        d.String("tensor name", 1, maxTensorNameLen),
			GradL2:      d.F64("grad l2"),
			GradInf:     d.F64("grad inf"),
			RMSE:        d.F64("rmse"),
			Compression: d.F64("compression"),
		})
	}
	d.End()
	if err := d.Err(); err != nil {
		return 0, TelemetrySnapshot{}, false, err
	}
	return from, s, true, nil
}
