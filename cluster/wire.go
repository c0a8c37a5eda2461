package cluster

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/wire"
)

// This file defines the rendezvous wire protocol: little-endian,
// length-prefixed, magic-tagged and versioned, in the same spirit as
// the quant frame format. Three message kinds travel during a
// rendezvous:
//
//	hello (worker → coordinator):
//	  uint32  magic "LPSC"
//	  uint8   protocol version (ProtocolVersion; the coordinator reads
//	          a hello at any other version no further)
//	  uint32  rank
//	  uint32  world size
//	  uint16  mesh address length, then the address bytes
//	  uint16  accepted policy count, then per policy uint8 length + string
//	  uint8   hello kind (0 = fresh rendezvous, 1 = rejoin)
//	  int64   completed synchronous steps the sender holds state for
//	          (-1 = none; a replacement claiming a dead rank's slot)
//
//	welcome (coordinator → worker):
//	  uint32  magic "LPSC"
//	  uint8   protocol version
//	  uint8   status (0 = ok, 1 = rejected)
//	  rejected: uint16 message length + message
//	  ok:       uint8 policy length + negotiated policy string,
//	            uint32 world size,
//	            per rank uint16 address length + mesh address,
//	            uint32 heartbeat interval (ms; 0 = health plane off),
//	            uint32 heartbeat timeout (ms),
//	            uint32 session generation (completed rejoin rounds),
//	            uint32 rejoin window (ms; 0 = elastic sessions off),
//	            uint32 step-table length (0 on a fresh rendezvous),
//	            per rank int64 completed steps (rejoin welcomes only)
//
//	mesh preamble (higher rank → lower rank, on the mesh listener):
//	  uint32  magic "LPSM"
//	  uint8   protocol version
//	  uint32  from rank
//	  uint32  to rank
//	  uint8   link kind (0 = data, 1 = health control)

const (
	// rendezvousMagic tags hello and welcome messages.
	rendezvousMagic = "LPSC"
	// meshMagic tags mesh-link preambles.
	meshMagic = "LPSM"

	// ProtocolVersion is the rendezvous wire version this package
	// speaks, and the only one it parses. Coordinator and workers must
	// match exactly. A hello at any other version is read no further
	// than its version byte and earns a reject written at the sender's
	// own version, so the other build can display the reason; a fresh
	// rendezvous then fails before any training state is built, while
	// an open rejoin barrier keeps waiting for the ranks it needs.
	ProtocolVersion = 4

	// The rendezvous caps, passed by every writer and reader below.
	// maxAddrLen and maxPolicies bound attacker-controlled lengths in a
	// hello so a garbage connection cannot make the coordinator allocate
	// unbounded memory; maxPolicyLen bounds one policy string, advertised
	// or negotiated; maxWorld the membership a welcome announces (and
	// its step table); maxRejectLen a rejection message, longer ones are
	// cut.
	maxAddrLen   = 256
	maxPolicies  = 256
	maxPolicyLen = 255
	maxWorld     = 1 << 16
	maxRejectLen = 1024
)

// Hello kinds.
const (
	helloFresh  = 0
	helloRejoin = 1
)

// hello is the decoded rendezvous request of one worker.
type hello struct {
	// Version is the protocol version the worker spoke. When it is not
	// ProtocolVersion no other field was read, and the coordinator
	// rejects the hello with a message the sender can read.
	Version  byte
	Rank     int
	World    int
	MeshAddr string
	Accept   []string
	// Rejoin marks a rejoin hello: the sender claims a slot of an
	// already-running session — a survivor re-entering after a death
	// verdict, or a replacement for the dead rank itself.
	Rejoin bool
	// Step is the sender's completed synchronous step count, the input
	// to donor election on a rejoin round. -1 means the sender holds no
	// training state and must receive the full snapshot.
	Step int64
}

// welcome is the decoded rendezvous response.
type welcome struct {
	Policy string
	Addrs  []string
	// Heartbeat parameters of the session's health plane, decided by
	// the coordinator so every rank runs identical detection settings.
	// A zero interval means the health plane is off and no control
	// links are established.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// Generation counts the session's completed rejoin rounds; a fresh
	// rendezvous welcomes at generation 0.
	Generation int
	// RejoinWindow is the coordinator-governed elastic-session setting:
	// how long a rejoin barrier stays open. Zero means elastic sessions
	// are off and a death verdict stays fatal.
	RejoinWindow time.Duration
	// Steps is the per-rank completed-step table of a rejoin round —
	// what every rank derives the resume point, the state donor and the
	// catch-up set from. Empty on a fresh rendezvous.
	Steps []int64
}

// Mesh-link kinds carried by the preamble.
const (
	linkData    = 0
	linkControl = 1
)

func writeHello(w io.Writer, h hello) error {
	e := wire.Encoder{Format: "cluster: hello"}
	e.MagicVersion(rendezvousMagic, ProtocolVersion)
	e.U32(uint32(h.Rank))
	e.U32(uint32(h.World))
	e.String("mesh address", 2, maxAddrLen, h.MeshAddr)
	e.Len("policies", 2, maxPolicies, len(h.Accept))
	for _, name := range h.Accept {
		e.String("policy", 1, maxPolicyLen, name)
	}
	kind := byte(helloFresh)
	if h.Rejoin {
		kind = helloRejoin
	}
	e.U8(kind)
	e.U64(uint64(h.Step))
	return e.Send(w)
}

// readHello decodes one hello. A hello at a version other than
// ProtocolVersion is returned with only Version set and no error; the
// caller rejects it.
func readHello(r io.Reader) (hello, error) {
	d := wire.NewReader("cluster: hello", r)
	d.ReadMagicVersion(rendezvousMagic, ProtocolVersion)
	var ve *wire.VersionError
	if errors.As(d.Err(), &ve) {
		return hello{Version: ve.Got}, nil
	}
	h := hello{Version: ProtocolVersion}
	d.Fill(8)
	h.Rank = int(d.U32("rank"))
	h.World = int(d.U32("world"))
	h.MeshAddr = d.String("mesh address", 2, maxAddrLen)
	n := d.Len("policies", 2, maxPolicies)
	for i := 0; i < n && d.Err() == nil; i++ {
		h.Accept = append(h.Accept, d.String("policy", 1, maxPolicyLen))
	}
	d.Fill(9)
	switch kind := d.U8("kind"); kind {
	case helloFresh:
	case helloRejoin:
		h.Rejoin = true
	default:
		d.Fail("kind", fmt.Errorf("unknown hello kind %d", kind))
	}
	h.Step = int64(d.U64("step"))
	return h, d.Err()
}

func writeWelcome(w io.Writer, wel welcome) error {
	e := wire.Encoder{Format: "cluster: welcome"}
	e.MagicVersion(rendezvousMagic, ProtocolVersion)
	e.U8(0) // status ok
	// The hello bounds each *raw* advertised string at maxPolicyLen, but
	// the negotiated result is the canonical spelling, which can be
	// longer ("x=qsgd4" canonicalises to "x=qsgd4b512"); the cap refuses
	// it instead of letting the length byte wrap and corrupt the stream.
	e.String("policy", 1, maxPolicyLen, wel.Policy)
	if len(wel.Addrs) == 0 {
		e.Fail("world", errors.New("empty membership"))
	}
	e.Len("world", 4, maxWorld, len(wel.Addrs))
	for _, a := range wel.Addrs {
		e.String("mesh address", 2, maxAddrLen, a)
	}
	e.U32(uint32(wel.HeartbeatInterval / time.Millisecond))
	e.U32(uint32(wel.HeartbeatTimeout / time.Millisecond))
	e.U32(uint32(wel.Generation))
	e.U32(uint32(wel.RejoinWindow / time.Millisecond))
	if len(wel.Steps) > 0 && len(wel.Steps) != len(wel.Addrs) {
		e.Fail("step table", fmt.Errorf("spans %d ranks, membership %d", len(wel.Steps), len(wel.Addrs)))
	}
	e.Len("step table", 4, maxWorld, len(wel.Steps))
	for _, s := range wel.Steps {
		e.U64(uint64(s))
	}
	return e.Send(w)
}

// writeReject sends an error welcome at the given protocol version —
// the offender's own version when its hello had a valid magic, so
// another build displays the actual reason instead of a version error.
// Failures are ignored: the connection is being torn down anyway.
func writeReject(w io.Writer, version byte, msg string) {
	if version == 0 {
		version = ProtocolVersion
	}
	e := wire.Encoder{Format: "cluster: welcome"}
	e.MagicVersion(rendezvousMagic, version)
	e.U8(1) // status rejected
	e.String("rejection", 2, maxRejectLen, msg[:min(len(msg), maxRejectLen)])
	e.Send(w)
}

func readWelcome(r io.Reader) (welcome, error) {
	var wel welcome
	d := wire.NewReader("cluster: welcome", r)
	d.ReadMagicVersion(rendezvousMagic, ProtocolVersion)
	if d.U8("status") != 0 {
		// A cut rejection falls through to return its field error.
		if msg := d.String("rejection", 2, maxRejectLen); d.Err() == nil {
			return wel, fmt.Errorf("cluster: coordinator rejected the hello: %s", msg)
		}
	}
	wel.Policy = d.String("policy", 1, maxPolicyLen)
	world := d.Len("world", 4, maxWorld)
	if world == 0 {
		d.Fail("world", errors.New("empty membership"))
	}
	for i := 0; i < world && d.Err() == nil; i++ {
		wel.Addrs = append(wel.Addrs, d.String("mesh address", 2, maxAddrLen))
	}
	d.Fill(20)
	wel.HeartbeatInterval = time.Duration(d.U32("heartbeat interval")) * time.Millisecond
	wel.HeartbeatTimeout = time.Duration(d.U32("heartbeat timeout")) * time.Millisecond
	wel.Generation = int(d.U32("generation"))
	wel.RejoinWindow = time.Duration(d.U32("rejoin window")) * time.Millisecond
	steps := d.Len("step table", 4, maxWorld)
	if steps != 0 && steps != world {
		d.Fail("step table", fmt.Errorf("spans %d ranks, membership %d", steps, world))
	}
	for i := 0; i < steps && d.Err() == nil; i++ {
		wel.Steps = append(wel.Steps, int64(d.U64("step")))
	}
	return wel, d.Err()
}

func writeMeshPreamble(w io.Writer, from, to int, kind byte) error {
	e := wire.Encoder{Format: "cluster: mesh preamble"}
	e.MagicVersion(meshMagic, ProtocolVersion)
	e.U32(uint32(from))
	e.U32(uint32(to))
	e.U8(kind)
	return e.Send(w)
}

func readMeshPreamble(r io.Reader) (from, to int, kind byte, err error) {
	d := wire.NewReader("cluster: mesh preamble", r)
	d.ReadMagicVersion(meshMagic, ProtocolVersion)
	d.Fill(9)
	return int(d.U32("from rank")), int(d.U32("to rank")), d.U8("link kind"), d.Err()
}
