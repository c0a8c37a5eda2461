package quant

import (
	"os"
	"strings"
	"testing"

	"repro/tensor"
)

// TestQSGDDispatchSelectsAVX2 keeps the vector parity suites honest: on
// a CPU the kernel reports AVX2 for, quant's switch must be on (else
// they compare the portable loops with themselves), and it must really
// move work between the two paths — in the float pass, the draw, the
// pack and the table decode.
func TestQSGDDispatchSelectsAVX2(t *testing.T) {
	if info, err := os.ReadFile("/proc/cpuinfo"); err != nil {
		t.Logf("no /proc/cpuinfo to check detection against: %v", err)
	} else if has := strings.Contains(string(info), " avx2"); has != useAVX2 || has != tensor.HasAVX2() {
		t.Fatalf("/proc/cpuinfo says avx2=%v, quant chose %v, tensor's probe says %v", has, useAVX2, tensor.HasAVX2())
	}
	if !useAVX2 {
		t.Skip("CPU without AVX2: only the portable path exists here")
	}
	defer func() { useAVX2 = true }()
	var sc qsgdScratch
	vals := make([]float32, 23)
	for _, c := range []struct {
		avx2    bool
		n, want int
	}{{true, 23, 20}, {true, 3, 0}, {false, 23, 0}} {
		useAVX2 = c.avx2
		if got := encodeLinearAsm(&sc, vals[:c.n], 0, 1, 7, 1<<31-1, 8, 7); got != c.want {
			t.Errorf("avx2=%v: the float pass kernel took %d of %d elements, want %d", c.avx2, got, c.n, c.want)
		}
		if got, _ := drawLevelsAsm(sc.codes[:c.n], sc.frac[:], sc.draw[:], 1); got != c.want {
			t.Errorf("avx2=%v: the draw kernel took %d of %d elements, want %d", c.avx2, got, c.n, c.want)
		}
	}
	// The pack takes whole blocks of 32 bytes, the table decode whole
	// words, at the widths they exist for; plain and added alike.
	var tab [256]float32
	wire := make([]byte, 4*codeChunk)
	out := make([]float32, codeChunk)
	for _, c := range []struct {
		avx2              bool
		bits, n           int
		wantPack, wantDec int
	}{
		{true, 2, 250, 128, 240}, {true, 4, 250, 192, 248}, {true, 8, 250, 224, 0}, {true, 16, 250, 0, 0},
		{true, 2, 15, 0, 0}, {true, 4, 7, 0, 0},
		{false, 2, 250, 0, 0}, {false, 4, 250, 0, 0}, {false, 8, 250, 0, 0},
	} {
		useAVX2 = c.avx2
		if got := packCodesAsm(wire, sc.codes[:c.n], uint(c.bits)); got != c.wantPack {
			t.Errorf("avx2=%v: the %d-bit pack kernel took %d of %d codes, want %d", c.avx2, c.bits, got, c.n, c.wantPack)
		}
		for _, add := range []bool{false, true} {
			if got := lookupCodesAsm(out[:c.n], wire, &tab, uint(c.bits), add); got != c.wantDec {
				t.Errorf("avx2=%v add=%v: the %d-bit table kernel took %d of %d codes, want %d", c.avx2, add, c.bits, got, c.n, c.wantDec)
			}
		}
	}
}
