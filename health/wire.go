package health

import (
	"io"
	"time"

	"repro/internal/wire"
)

// This file defines the control-plane wire protocol: little-endian,
// magic-tagged and versioned messages travelling over the dedicated
// per-peer control links the cluster rendezvous establishes alongside
// the data mesh. Three fixed-size message kinds exist (a fourth,
// length-prefixed telemetry kind is described in telemetry.go):
//
//	ping (every rank → every peer, each heartbeat interval):
//	  uint32  magic "LPSH"
//	  uint8   control protocol version (currently 1)
//	  uint8   kind (0)
//	  uint32  sender rank
//	  uint64  sequence number
//	  int64   step index of the sender's last completed training step
//	  int64   compute wall time of that step (ns)
//	  int64   exchange wall time of that step (ns)
//
//	abort (the rank that reached a death verdict → every survivor):
//	  header as above, kind 1
//	  uint32  sender rank
//	  uint32  dead rank
//	  int64   dead rank's last-seen time (unix nanoseconds)
//
//	bye (a rank shutting down cleanly → every peer, kind 2):
//	  header as above, kind 2
//	  uint32  sender rank
//
// Pings double as the straggler-telemetry channel: the step timing
// fields let every rank attribute the synchronous barrier's wait time
// to the slowest participant without adding a single byte to the data
// mesh (see Monitor.Report).

const (
	// controlMagic tags every control-plane message.
	controlMagic = "LPSH"

	// controlVersion is the control-plane wire version. It is versioned
	// independently of the rendezvous protocol: the rendezvous hello
	// gates build compatibility, so by the time control links exist both
	// ends already agreed on the cluster protocol.
	controlVersion = 1

	kindPing  = 0
	kindAbort = 1
	kindBye   = 2
	// kindTelemetry opens the extension-kind range: every kind from
	// here on is framed with an explicit uint32 body length so unknown
	// kinds can be skipped instead of desynchronising the stream (see
	// telemetry.go for the body layout).
	kindTelemetry = 3

	// pingBody/abortBody/byeBody are the fixed payload sizes per kind.
	pingBody  = 4 + 8 + 8 + 8 + 8
	abortBody = 4 + 4 + 8
	byeBody   = 4

	// maxExtensionBody bounds any length-prefixed extension body; a
	// larger claim is stream corruption, not a big message.
	maxExtensionBody = maxTelemetryBody
)

// message is one decoded control-plane message.
type message struct {
	Kind byte
	From int
	// Ping fields.
	Seq      uint64
	Report   StepReport
	HasSteps bool
	// Abort fields.
	Dead         int
	LastSeenNano int64
	// Telemetry fields. HasTelemetry is false for an extension message
	// that was skipped (unknown kind or unknown snapshot version).
	Telemetry    TelemetrySnapshot
	HasTelemetry bool
}

// appendHeader appends the header every control message opens with.
func appendHeader(buf []byte, kind byte) []byte {
	return append(append(buf, controlMagic...), controlVersion, kind)
}

// encodePing assembles a ping carrying the sender's latest step report.
func encodePing(buf []byte, from int, seq uint64, r StepReport) []byte {
	e := wire.Encoder{Buf: appendHeader(buf[:0], kindPing)}
	e.U32(uint32(from))
	e.U64(seq)
	e.U64(uint64(r.Step))
	e.U64(uint64(r.Compute.Nanoseconds()))
	e.U64(uint64(r.Exchange.Nanoseconds()))
	return e.Buf
}

// encodeAbort assembles the coordinated-abort broadcast.
func encodeAbort(buf []byte, from, dead int, lastSeenNano int64) []byte {
	e := wire.Encoder{Buf: appendHeader(buf[:0], kindAbort)}
	e.U32(uint32(from))
	e.U32(uint32(dead))
	e.U64(uint64(lastSeenNano))
	return e.Buf
}

// encodeBye assembles the clean-departure notice.
func encodeBye(buf []byte, from int) []byte {
	e := wire.Encoder{Buf: appendHeader(buf[:0], kindBye)}
	e.U32(uint32(from))
	return e.Buf
}

// readMessage blocks for the next control message on r and decodes it:
// one read for the header, one for a fixed body (two for an extension
// kind's length and body).
func readMessage(r io.Reader) (message, error) {
	var m message
	d := wire.NewReader("health: control message", r)
	d.Fill(6)
	d.ReadMagicVersion(controlMagic, controlVersion)
	m.Kind = d.U8("kind")
	switch m.Kind {
	case kindPing:
		d.Fill(pingBody)
		m.From = int(d.U32("sender rank"))
		m.Seq = d.U64("sequence")
		m.Report.Step = int64(d.U64("step"))
		m.Report.Compute = time.Duration(d.U64("compute ns"))
		m.Report.Exchange = time.Duration(d.U64("exchange ns"))
		m.HasSteps = m.Report.Step > 0
	case kindAbort:
		d.Fill(abortBody)
		m.From = int(d.U32("sender rank"))
		m.Dead = int(d.U32("dead rank"))
		m.LastSeenNano = int64(d.U64("last seen"))
	case kindBye:
		d.Fill(byeBody)
		m.From = int(d.U32("sender rank"))
	default:
		// Extension kinds carry an explicit body length: read it, bound
		// it, consume the body. Kinds this build does not know are
		// skipped — a newer peer's extra messages must not read as death.
		body := d.Bytes("body", 4, maxExtensionBody)
		if m.Kind == kindTelemetry && d.Err() == nil {
			var err error
			m.From, m.Telemetry, m.HasTelemetry, err = decodeTelemetry(body)
			return m, err
		}
	}
	return m, d.Err()
}
