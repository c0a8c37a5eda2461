package lint

import "repro/internal/lint/analysis"

// Analyzers is the lpsgd-vet suite, in reporting order. Each entry is
// also registered with the framework so //lint:allow directives can be
// validated against the full set regardless of which analyzers a given
// run enables.
var Analyzers = []*analysis.Analyzer{
	Commerr,
	Golifecycle,
	Obsinert,
	Simclock,
	Wirebound,
}

func init() {
	for _, a := range Analyzers {
		analysis.Register(a)
	}
}
