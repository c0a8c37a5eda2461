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
// move work between the two paths.
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
}
