// Package a exercises the commerr analyzer against the fake
// repro/comm and repro/quant packages.
package a

import (
	"bytes"

	"repro/comm"
	"repro/quant"
)

func discardExpr(t comm.Transport, buf []byte) {
	t.Send(0, 1, nil, buf) // want `result of comm\.Transport\.Send discarded`
}

func discardGo(f *comm.Fabric, buf []byte) {
	go f.Send(0, 1, nil, buf) // want `result of comm\.Fabric\.Send discarded by go statement`
}

func discardDefer(f *comm.Fabric, buf []byte) {
	defer f.Send(0, 1, nil, buf) // want `result of comm\.Fabric\.Send discarded by defer statement`
}

func blankRecv(f *comm.RemoteFabric) []byte {
	buf, _ := f.Recv(1, 0) // want `error from comm\.RemoteFabric\.Recv assigned to blank`
	return buf
}

func discardRecvInto(t comm.Transport, buf []byte) {
	t.RecvInto(1, 0, buf) // want `result of comm\.Transport\.RecvInto discarded`
}

func blankRecvInto(f *comm.Fabric, buf []byte) {
	_ = f.RecvInto(1, 0, buf) // want `error from comm\.Fabric\.RecvInto assigned to blank`
}

func blankSend(t comm.Transport, buf []byte) {
	_ = t.Send(0, 1, nil, buf) // want `error from comm\.Transport\.Send assigned to blank`
}

func blankEncode(e *quant.Encoder, data []float32) {
	var buf bytes.Buffer
	_ = e.EncodeTo(&buf, data) // want `error from Encoder\.EncodeTo assigned to blank`
}

func handled(t comm.Transport, buf []byte) error {
	if err := t.Send(0, 1, nil, buf); err != nil {
		return err
	}
	return t.RecvInto(1, 0, buf)
}

// localSender's Send is not the transport's; discarding its result is
// out of scope.
type localSender struct{}

func (localSender) Send(from, to int, payload []byte) error { return nil }

func unrelated(s localSender) {
	s.Send(0, 1, nil)
}

// allowedSend proves the escape hatch suppresses exactly one
// diagnostic: the second send still fires.
func allowedSend(t comm.Transport, buf []byte) {
	t.Send(0, 1, nil, buf) //lint:allow commerr fixture: fire-and-forget probe, the receiver has its own deadline
	t.Send(0, 2, nil, buf) // want `result of comm\.Transport\.Send discarded`
}

func typoSend(t comm.Transport, buf []byte) {
	t.Send(0, 1, nil, buf) /*lint:allow comerr typo in the analyzer name*/ // want `result of comm\.Transport\.Send discarded` `names unknown analyzer "comerr"`
}

func noReasonSend(t comm.Transport, buf []byte) {
	t.Send(0, 1, nil, buf) /*lint:allow commerr*/ // want `result of comm\.Transport\.Send discarded` `is missing a reason`
}

// deadAllow's directive covers a call that already handles its error,
// so the directive itself is the finding.
func deadAllow(t comm.Transport, buf []byte) error {
	/*lint:allow commerr the call below already handles its error*/ // want `unused //lint:allow commerr directive`
	return t.Send(0, 1, nil, buf)
}
