package nn

import (
	"math"
	"runtime"
	"testing"

	"repro/quant"
	"repro/rng"
)

// refStep is SGD.Step as it was before the update became one fused
// pass (tensor.MomentumStep), kept verbatim as the reference the fused
// update is held to, bit for bit. Together with refScale, the engine's
// old separate 1/K pass, it is what StepScaled(a) must reproduce.
func refStep(s *SGD) {
	for i, p := range s.params {
		v := s.velocity[i]
		if s.weightDecay != 0 {
			for j := range v.Data {
				g := p.Grad.Data[j] + s.weightDecay*p.Value.Data[j]
				v.Data[j] = s.momentum*v.Data[j] - s.lr*g
				p.Value.Data[j] += v.Data[j]
			}
			continue
		}
		for j := range v.Data {
			v.Data[j] = s.momentum*v.Data[j] - s.lr*p.Grad.Data[j]
			p.Value.Data[j] += v.Data[j]
		}
	}
}

// refScale is the engine's old average: every gradient element
// multiplied by a, in its own pass.
func refScale(params []*Param, a float32) {
	for _, p := range params {
		for j := range p.Grad.Data {
			p.Grad.Data[j] *= a
		}
	}
}

// refParams builds parameters of the given lengths with weights,
// gradients and velocities drawn from r; every seventh element of each
// is one of NaN, ±Inf, ±0, a denormal or 1e±30.
func refParams(r *rng.RNG, lens []int) (params []*Param, vel [][]float32) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		0, float32(math.Copysign(0, -1)), 1e-40, -3e-39, 1e30, -1e30, 1e-30}
	fill := func(x []float32) {
		for i := range x {
			x[i] = r.Norm(1)
			if i%7 == 3 {
				x[i] = specials[r.Intn(len(specials))]
			}
		}
	}
	for _, n := range lens {
		p := newParam("p", 1, n, quant.Shape{Rows: 1, Cols: n})
		fill(p.Value.Data)
		fill(p.Grad.Data)
		v := make([]float32, n)
		fill(v)
		params, vel = append(params, p), append(vel, v)
	}
	return params, vel
}

// cloneParams deep-copies params (value and gradient).
func cloneParams(params []*Param) []*Param {
	out := make([]*Param, len(params))
	for i, p := range params {
		out[i] = &Param{Name: p.Name, Value: p.Value.Clone(), Grad: p.Grad.Clone(), WireShape: p.WireShape}
	}
	return out
}

func sameBits(x, y float32) bool {
	return math.Float32bits(x) == math.Float32bits(y) || (x != x && y != y)
}

// TestStepScaledMatchesReference holds the fused update to the old
// scale-then-step code on float bits — weights, velocities and the
// gradients left behind — over every tail length, both weight-decay
// loops and the averages of K = 1, 2, 3 and 5, for several steps.
func TestStepScaledMatchesReference(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The reference is the old loop verbatim, and elsewhere (arm64)
		// the compiler fuses its multiply-adds: the divergence the
		// fused update's explicit rounding removes.
		t.Skip("the verbatim reference rounds like the fused update only on amd64")
	}
	lens := []int{1, 7, 8, 9, 31, 32, 33, 40, 1000}
	for _, wd := range []float32{0, 5e-4} {
		for _, k := range []int{1, 2, 3, 5} {
			a := 1 / float32(k)
			r := rng.New(uint64(k) + 10*uint64(wd*1e4))
			got, vel := refParams(r, lens)
			want := cloneParams(got)
			fused := NewSGD(got, 0.05, 0.9)
			ref := NewSGD(want, 0.05, 0.9)
			for i := range vel {
				copy(fused.velocity[i].Data, vel[i])
				copy(ref.velocity[i].Data, vel[i])
			}
			fused.SetWeightDecay(wd)
			ref.SetWeightDecay(wd)
			for step := 0; step < 3; step++ {
				if k == 1 {
					fused.Step()
				} else {
					fused.StepScaled(a)
					refScale(want, a)
				}
				refStep(ref)
				for i := range got {
					for _, x := range []struct {
						name      string
						got, want []float32
					}{
						{"w", got[i].Value.Data, want[i].Value.Data},
						{"v", fused.velocity[i].Data, ref.velocity[i].Data},
						{"g", got[i].Grad.Data, want[i].Grad.Data},
					} {
						for j := range x.want {
							if !sameBits(x.got[j], x.want[j]) {
								t.Fatalf("wd=%g k=%d step %d: param %d (len %d) %s[%d] = %v (%#08x), reference %v (%#08x)",
									wd, k, step, i, lens[i], x.name, j, x.got[j], math.Float32bits(x.got[j]),
									x.want[j], math.Float32bits(x.want[j]))
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkUpdate is the update of the MLP workloads' 596 k parameters:
// the old separate average pass and step against one StepScaled. Both
// multiply by 1, so repeated iterations keep the values' scale; the
// cost per element does not depend on the factor.
func BenchmarkUpdate(b *testing.B) {
	r := rng.New(1)
	params, _ := refParams(r, []int{64 * 1024, 1024, 1024 * 512, 512, 512 * 10, 10})
	for _, p := range params {
		p.Value.FillNorm(r, 1)
		p.Grad.FillNorm(r, 1)
	}
	opt := NewSGD(params, 1e-9, 0.9)
	b.Run("scale+reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refScale(params, 1)
			refStep(opt)
		}
	})
	b.Run("StepScaled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opt.StepScaled(1)
		}
	})
}
