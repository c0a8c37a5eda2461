// Package elastic exercises the wirebound analyzer's bound rule: outside
// internal/wire, no make may be sized by a raw wire read, whatever
// comparison or min() stands before it.
package elastic

import (
	"encoding/binary"
	"io"
)

const maxElems = 1 << 20

type header struct {
	Magic uint32
	N     uint32
}

func readUnguarded(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf := make([]byte, n) // want `make sized by a raw wire read`
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// readGuarded compares the length against a cap first; outside the
// toolkit that is still no bound.
func readGuarded(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxElems {
		return nil, io.ErrUnexpectedEOF
	}
	buf := make([]byte, n) // want `make sized by a raw wire read`
	_, err := io.ReadFull(r, buf)
	return buf, err
}

func readDirect(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.BigEndian.Uint64(hdr[:])) // want `make sized by a raw wire read`
	_, err := io.ReadFull(r, payload)
	return payload, err
}

// readChunked caps the allocation with the min builtin; the cap is the
// toolkit's to apply, so this is reported too.
func readChunked(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	chunk := make([]byte, min(n, 4096)) // want `make sized by a raw wire read`
	_, err := io.ReadFull(r, chunk)
	return chunk, err
}

func readStruct(r io.Reader) ([]float32, error) {
	var hdr header
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	vals := make([]float32, hdr.N) // want `make sized by a raw wire read`
	return vals, binary.Read(r, binary.LittleEndian, vals)
}

// readPinned pins the decoded count against a caller-supplied shape;
// an equality comparison is no bound either.
func readPinned(r io.Reader, expect uint32) ([]float32, error) {
	var hdr header
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if hdr.N != expect {
		return nil, io.ErrUnexpectedEOF
	}
	vals := make([]float32, hdr.N) // want `make sized by a raw wire read`
	return vals, binary.Read(r, binary.LittleEndian, vals)
}

// readAllowed proves the escape hatch suppresses exactly one
// diagnostic: the trailing directive clears its own line and the next
// line still fires.
func readAllowed(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	a := make([]byte, n) //lint:allow wirebound fixture: length is trusted here, proving the escape hatch
	b := make([]byte, n) // want `make sized by a raw wire read`
	return append(a, b...), nil
}

// readTypo misspells the analyzer name, so the directive itself is the
// finding and the diagnostic it meant to silence still fires.
func readTypo(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	buf := make([]byte, n) /*lint:allow wirebond typo in the analyzer name*/ // want `make sized by a raw wire read` `names unknown analyzer "wirebond"`
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// readVar declares the length with var and sizes the capacity with it.
func readVar(b []byte) []byte {
	var n = binary.LittleEndian.Uint16(b)
	return make([]byte, 0, n) // want `make sized by a raw wire read`
}

// readOrder reads through a binary.ByteOrder chosen by the caller.
func readOrder(order binary.ByteOrder, b []byte) []byte {
	return make([]byte, order.Uint32(b)) // want `make sized by a raw wire read`
}

// readLen sizes its buffer from a length that never came off the wire.
func readLen(b []byte) []byte {
	n := len(b) + int(maxElems)
	return make([]byte, n)
}

// lookalike only spells like a byte order: the rule resolves callees
// through the type checker, not by their spelling.
type lookalike struct{}

func (lookalike) Uint32(b []byte) uint32 { return uint32(len(b)) }

func readLookalike(b []byte) []byte {
	binary := struct{ LittleEndian lookalike }{}
	return make([]byte, binary.LittleEndian.Uint32(b))
}
