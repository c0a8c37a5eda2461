// Package quant is a minimal stand-in for the real repro/quant: the
// encoder whose EncodeTo result commerr protects.
package quant

import "io"

// Codec mirrors the real codec interface surface the fakes need.
type Codec interface{ Name() string }

// Policy mirrors the real policy configuration value.
type Policy struct {
	Base    Codec
	MinFrac float64
}

// Encoder mirrors the framed stream encoder.
type Encoder struct{}

func (*Encoder) EncodeTo(w io.Writer, data []float32) error { return nil }

// Plan mirrors the evaluated plan type.
type Plan struct{}

// NewPlan is the supported constructor.
func NewPlan(p *Policy, n int) *Plan { return &Plan{} }
