package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"
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
	// rendezvousMagic tags hello and welcome messages ("LPSC").
	rendezvousMagic uint32 = 'L' | 'P'<<8 | 'S'<<16 | 'C'<<24
	// meshMagic tags mesh-link preambles ("LPSM").
	meshMagic uint32 = 'L' | 'P'<<8 | 'S'<<16 | 'M'<<24

	// ProtocolVersion is the rendezvous wire version this package
	// speaks, and the only one it parses. Coordinator and workers must
	// match exactly. A hello at any other version is read no further
	// than its version byte and earns a reject written at the sender's
	// own version, so the other build can display the reason; a fresh
	// rendezvous then fails before any training state is built, while
	// an open rejoin barrier keeps waiting for the ranks it needs.
	ProtocolVersion = 4

	// maxAddrLen and maxCodecs bound attacker-controlled lengths in a
	// hello so a garbage connection cannot make the coordinator allocate
	// unbounded memory.
	maxAddrLen = 256
	maxCodecs  = 256
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
	Codec string
	Addrs []string
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
	if len(h.MeshAddr) > maxAddrLen {
		return fmt.Errorf("cluster: mesh address %q too long", h.MeshAddr)
	}
	if len(h.Accept) > maxCodecs {
		return fmt.Errorf("cluster: %d accepted policies exceeds cap %d", len(h.Accept), maxCodecs)
	}
	buf := appendU32(nil, rendezvousMagic)
	buf = append(buf, ProtocolVersion)
	buf = appendU32(buf, uint32(h.Rank))
	buf = appendU32(buf, uint32(h.World))
	buf = appendU16(buf, uint16(len(h.MeshAddr)))
	buf = append(buf, h.MeshAddr...)
	buf = appendU16(buf, uint16(len(h.Accept)))
	for _, name := range h.Accept {
		if len(name) > 255 {
			return fmt.Errorf("cluster: policy string %q too long", name)
		}
		buf = append(buf, byte(len(name)))
		buf = append(buf, name...)
	}
	kind := byte(helloFresh)
	if h.Rejoin {
		kind = helloRejoin
	}
	buf = append(buf, kind)
	buf = appendU64(buf, uint64(h.Step))
	_, err := w.Write(buf)
	return err
}

// readHello decodes one hello. A hello at a version other than
// ProtocolVersion is returned with only Version set and no error; the
// caller rejects it.
func readHello(r io.Reader) (hello, error) {
	v, err := readMagic(r, rendezvousMagic, "hello")
	h := hello{Version: v}
	if err != nil || v != ProtocolVersion {
		return h, err
	}
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return h, fmt.Errorf("cluster: hello header: %w", err)
	}
	h.Rank = int(binary.LittleEndian.Uint32(fixed[0:]))
	h.World = int(binary.LittleEndian.Uint32(fixed[4:]))
	addr, err := readString16(r, maxAddrLen, "mesh address")
	if err != nil {
		return h, err
	}
	h.MeshAddr = addr
	var cnt [2]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return h, fmt.Errorf("cluster: hello policy count: %w", err)
	}
	n := int(binary.LittleEndian.Uint16(cnt[:]))
	if n > maxCodecs {
		return h, fmt.Errorf("cluster: hello advertises %d policies, cap is %d", n, maxCodecs)
	}
	for i := 0; i < n; i++ {
		name, err := readString8(r, "policy string")
		if err != nil {
			return h, err
		}
		h.Accept = append(h.Accept, name)
	}
	var tail [9]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return h, fmt.Errorf("cluster: hello elastic fields: %w", err)
	}
	switch tail[0] {
	case helloFresh:
	case helloRejoin:
		h.Rejoin = true
	default:
		return h, fmt.Errorf("cluster: unknown hello kind %d", tail[0])
	}
	h.Step = int64(binary.LittleEndian.Uint64(tail[1:]))
	return h, nil
}

func writeWelcome(w io.Writer, wel welcome) error {
	// The hello bounds each *raw* advertised string at 255 bytes, but
	// the negotiated result is the canonical spelling, which can be
	// longer ("x=qsgd4" canonicalises to "x=qsgd4b512"); an unchecked
	// byte(len) would wrap and corrupt the whole welcome stream.
	if len(wel.Codec) > 255 {
		return fmt.Errorf("cluster: negotiated policy %q exceeds the 255-byte wire limit", wel.Codec)
	}
	buf := appendU32(nil, rendezvousMagic)
	buf = append(buf, ProtocolVersion, 0)
	buf = append(buf, byte(len(wel.Codec)))
	buf = append(buf, wel.Codec...)
	buf = appendU32(buf, uint32(len(wel.Addrs)))
	for _, a := range wel.Addrs {
		if len(a) > maxAddrLen {
			return fmt.Errorf("cluster: mesh address %q too long", a)
		}
		buf = appendU16(buf, uint16(len(a)))
		buf = append(buf, a...)
	}
	buf = appendU32(buf, uint32(wel.HeartbeatInterval/time.Millisecond))
	buf = appendU32(buf, uint32(wel.HeartbeatTimeout/time.Millisecond))
	buf = appendU32(buf, uint32(wel.Generation))
	buf = appendU32(buf, uint32(wel.RejoinWindow/time.Millisecond))
	if len(wel.Steps) > 0 && len(wel.Steps) != len(wel.Addrs) {
		return fmt.Errorf("cluster: step table spans %d ranks, membership %d", len(wel.Steps), len(wel.Addrs))
	}
	buf = appendU32(buf, uint32(len(wel.Steps)))
	for _, s := range wel.Steps {
		buf = appendU64(buf, uint64(s))
	}
	_, err := w.Write(buf)
	return err
}

// writeReject sends an error welcome at the given protocol version —
// the offender's own version when its hello had a valid magic, so
// another build displays the actual reason instead of a version error.
// Failures are ignored: the connection is being torn down anyway.
func writeReject(w io.Writer, version byte, msg string) {
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	if version == 0 {
		version = ProtocolVersion
	}
	buf := appendU32(nil, rendezvousMagic)
	buf = append(buf, version, 1)
	buf = appendU16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	w.Write(buf)
}

func readWelcome(r io.Reader) (welcome, error) {
	var wel welcome
	if err := readMagicVersion(r, rendezvousMagic, "welcome"); err != nil {
		return wel, err
	}
	var status [1]byte
	if _, err := io.ReadFull(r, status[:]); err != nil {
		return wel, fmt.Errorf("cluster: welcome status: %w", err)
	}
	if status[0] != 0 {
		msg, err := readString16(r, 1024, "rejection")
		if err != nil {
			return wel, fmt.Errorf("cluster: coordinator rejected the hello")
		}
		return wel, fmt.Errorf("cluster: coordinator rejected the hello: %s", msg)
	}
	codec, err := readString8(r, "policy string")
	if err != nil {
		return wel, err
	}
	wel.Codec = codec
	var cnt [4]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return wel, fmt.Errorf("cluster: welcome world: %w", err)
	}
	world := int(binary.LittleEndian.Uint32(cnt[:]))
	if world <= 0 || world > 1<<16 {
		return wel, fmt.Errorf("cluster: welcome announces world of %d", world)
	}
	for i := 0; i < world; i++ {
		a, err := readString16(r, maxAddrLen, "mesh address")
		if err != nil {
			return wel, err
		}
		wel.Addrs = append(wel.Addrs, a)
	}
	var hb [8]byte
	if _, err := io.ReadFull(r, hb[:]); err != nil {
		return wel, fmt.Errorf("cluster: welcome heartbeat parameters: %w", err)
	}
	wel.HeartbeatInterval = time.Duration(binary.LittleEndian.Uint32(hb[0:])) * time.Millisecond
	wel.HeartbeatTimeout = time.Duration(binary.LittleEndian.Uint32(hb[4:])) * time.Millisecond
	var el [12]byte
	if _, err := io.ReadFull(r, el[:]); err != nil {
		return wel, fmt.Errorf("cluster: welcome elastic parameters: %w", err)
	}
	wel.Generation = int(binary.LittleEndian.Uint32(el[0:]))
	wel.RejoinWindow = time.Duration(binary.LittleEndian.Uint32(el[4:])) * time.Millisecond
	steps := int(binary.LittleEndian.Uint32(el[8:]))
	if steps != 0 && steps != world {
		return wel, fmt.Errorf("cluster: welcome step table spans %d ranks, membership %d", steps, world)
	}
	for i := 0; i < steps; i++ {
		var sb [8]byte
		if _, err := io.ReadFull(r, sb[:]); err != nil {
			return wel, fmt.Errorf("cluster: welcome step table: %w", err)
		}
		wel.Steps = append(wel.Steps, int64(binary.LittleEndian.Uint64(sb[:])))
	}
	return wel, nil
}

func writeMeshPreamble(w io.Writer, from, to int, kind byte) error {
	buf := appendU32(nil, meshMagic)
	buf = append(buf, ProtocolVersion)
	buf = appendU32(buf, uint32(from))
	buf = appendU32(buf, uint32(to))
	buf = append(buf, kind)
	_, err := w.Write(buf)
	return err
}

func readMeshPreamble(r io.Reader) (from, to int, kind byte, err error) {
	if err := readMagicVersion(r, meshMagic, "mesh preamble"); err != nil {
		return 0, 0, 0, err
	}
	var fixed [9]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("cluster: mesh preamble: %w", err)
	}
	return int(binary.LittleEndian.Uint32(fixed[0:])),
		int(binary.LittleEndian.Uint32(fixed[4:])), fixed[8], nil
}

// readMagicVersion consumes and validates the shared magic + version
// prefix of a protocol message, requiring an exact version match.
func readMagicVersion(r io.Reader, magic uint32, kind string) error {
	v, err := readMagic(r, magic, kind)
	if err == nil && v != ProtocolVersion {
		err = fmt.Errorf("cluster: %s speaks protocol version %d, this build speaks %d", kind, v, ProtocolVersion)
	}
	return err
}

// readMagic consumes the magic + version prefix and returns the
// version byte.
func readMagic(r io.Reader, magic uint32, kind string) (byte, error) {
	var fixed [5]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return 0, fmt.Errorf("cluster: %s header: %w", kind, err)
	}
	if got := binary.LittleEndian.Uint32(fixed[0:]); got != magic {
		return 0, fmt.Errorf("cluster: bad %s magic %#x", kind, got)
	}
	return fixed[4], nil
}

func readString8(r io.Reader, what string) (string, error) {
	var l [1]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", fmt.Errorf("cluster: %s length: %w", what, err)
	}
	buf := make([]byte, l[0])
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("cluster: %s: %w", what, err)
	}
	return string(buf), nil
}

func readString16(r io.Reader, cap int, what string) (string, error) {
	var l [2]byte
	if _, err := io.ReadFull(r, l[:]); err != nil {
		return "", fmt.Errorf("cluster: %s length: %w", what, err)
	}
	n := int(binary.LittleEndian.Uint16(l[:]))
	if n > cap {
		return "", fmt.Errorf("cluster: %s of %d bytes exceeds cap %d", what, n, cap)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("cluster: %s: %w", what, err)
	}
	return string(buf), nil
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendU16(dst []byte, v uint16) []byte {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	return append(dst, b[:]...)
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}
