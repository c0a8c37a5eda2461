// Package comm is a minimal stand-in for the real repro/comm: it
// carries only the identities the commerr analyzer keys on (the
// package path, the Transport interface and two concrete fabrics).
package comm

// Transport mirrors the real transport contract.
type Transport interface {
	Send(from, to int, header, payload []byte) error
	Flush(rank int) error
	RecvInto(from, to int, header, payload []byte) error
}

// Fabric is a concrete transport.
type Fabric struct{}

func (*Fabric) Send(from, to int, header, payload []byte) error     { return nil }
func (*Fabric) Flush(rank int) error                                { return nil }
func (*Fabric) RecvInto(from, to int, header, payload []byte) error { return nil }

// RemoteFabric additionally keeps the variable-length receive.
type RemoteFabric struct{ Fabric }

func (*RemoteFabric) Recv(from, to int) ([]byte, error) { return nil, nil }
