//go:build !amd64

package quant

// useAVX2 is always false here; it exists so that tests can switch the
// dispatchers on every architecture.
var useAVX2 = false

// The QSGD kernels' dispatchers report that this architecture has no
// kernels: every element runs on the portable loops.

func encodeLinearAsm(*qsgdScratch, []float32, float64, float64, float64, uint32, uint32, uint32) int {
	return 0
}

func drawLevelsAsm(_ []uint32, _ []float64, _ []uint8, state uint64) (int, uint64) { return 0, state }

func packCodesAsm([]byte, []uint32, uint) int { return 0 }

func lookupCodesAsm([]float32, []byte, *[256]float32, uint, bool) int { return 0 }
