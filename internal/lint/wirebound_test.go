package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/analysistest"
)

func TestWirebound(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), lint.Wirebound,
		"wirebound/elastic",   // raw-read shapes, renamed import, escape hatch, typo directive
		"wirebound/sim",       // json.Decoder DisallowUnknownFields cases
		"wirebound/other",     // any package: the bound rule has no package list
		"repro/internal/wire", // the toolkit itself: same shape, no findings
	)
}
