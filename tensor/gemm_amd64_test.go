package tensor

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestDispatchSelectsAVX2 keeps the parity suites honest: on a CPU the
// kernel reports AVX2 for, the dispatchers must have chosen the kernels
// (else the suites compare the portable loops with themselves), and the
// switch must really move work between the two paths.
func TestDispatchSelectsAVX2(t *testing.T) {
	if info, err := os.ReadFile("/proc/cpuinfo"); err != nil {
		t.Logf("no /proc/cpuinfo to check detection against: %v", err)
	} else if has := strings.Contains(string(info), " avx2"); has != useAVX2 {
		t.Fatalf("/proc/cpuinfo says avx2=%v, detectAVX2 chose %v", has, useAVX2)
	}
	if !useAVX2 {
		t.Skip("CPU without AVX2: only the portable path exists here")
	}
	defer func() { useAVX2 = true }()
	for kind := gemmNN; kind <= gemmTB; kind++ {
		for _, s := range benchShapes {
			c := gemmCase{kind, s[0], s[1], s[2]}
			a, b := c.operands()
			dst := New(c.m, c.n)
			useAVX2 = true
			if !gemmAsm(kind, dst, a, b) {
				t.Errorf("%v did not run on the AVX2 kernels", c)
			}
			useAVX2 = false
			if gemmAsm(kind, dst, a, b) {
				t.Errorf("%v ran on the AVX2 kernels with the switch off", c)
			}
		}
	}
	// The vector kernels share the switch.
	for _, c := range []struct {
		avx2    bool
		n, want int
	}{{true, 23, 16}, {true, 7, 0}, {false, 23, 0}} {
		useAVX2 = c.avx2
		if got := vecBody(c.n); got != c.want {
			t.Errorf("avx2=%v: the vector kernels take %d of %d elements, want %d", c.avx2, got, c.n, c.want)
		}
	}
}

// TestAddKeepsDstNaN: on AVX2, Add's kernel takes every element, the
// tail included, and each addition has dst first, so where both
// operands are NaNs dst's (quietened) survives at every length.
func TestAddKeepsDstNaN(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the compiled loop orders the operands")
	}
	for n := 1; n <= 40; n++ {
		dst, src := make([]float32, n), make([]float32, n)
		for i := range dst {
			dst[i] = math.Float32frombits(0x7fa00000 | uint32(i+1)) // signalling
			src[i] = math.Float32frombits(0xffc0beef)
		}
		if got := addAsm(dst, src); got != n {
			t.Fatalf("n=%d: the kernel took %d elements", n, got)
		}
		for i, v := range dst {
			if want := 0x7fe00000 | uint32(i+1); math.Float32bits(v) != want {
				t.Fatalf("n=%d: element %d is %#x, want dst's NaN quietened, %#x", n, i, math.Float32bits(v), want)
			}
		}
	}
}
