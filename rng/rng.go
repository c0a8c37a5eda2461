// Package rng provides a small, fast, deterministic random number
// generator used throughout the repository.
//
// Reproducibility is a hard requirement of the study: every training run,
// every stochastic quantisation decision, and every synthetic dataset must
// be bit-identical across repeated executions so that accuracy comparisons
// between codecs are attributable to the codec and not to seed drift. The
// generator is a splitmix64 core (Steele et al., "Fast splittable
// pseudorandom number generators") which passes BigCrush, needs no
// allocation, and can be forked deterministically per (worker, tensor).
package rng

import "math"

// RNG is a splitmix64 pseudorandom generator. The zero value is a valid
// generator seeded with 0; use New to seed explicitly.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// State returns the generator's internal state. Together with SetState
// it lets checkpoint/restore machinery (repro/elastic) capture a stream
// mid-run and resume it bit-identically: the splitmix64 state is the
// whole generator, so State/SetState round-trips losslessly.
func (r *RNG) State() uint64 { return r.state }

// SetState repositions the generator to a state previously captured
// with State. SetState(seed) is equivalent to *r = *New(seed).
func (r *RNG) SetState(s uint64) { r.state = s }

// Fork returns an independent generator derived from the parent's seed and
// the given stream identifier. Forks with distinct ids produce
// uncorrelated streams, which lets each (worker, tensor) pair own a
// private stream while remaining reproducible.
func (r *RNG) Fork(id uint64) *RNG {
	// Mix the id through one splitmix64 round so that consecutive ids do
	// not yield consecutive seeds.
	z := r.state + 0x9e3779b97f4a7c15*(id+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return &RNG{state: z ^ (z >> 31)}
}

// Step is one splitmix64 step on a state the caller holds: it returns
// the advanced state and the 64 output bits that RNG.Uint64 would have
// returned from the same state. It inlines, so a hot loop can keep the
// state in a register for its whole run and store it back once with
// SetState, consuming exactly the draws the equivalent sequence of
// method calls would.
func Step(state uint64) (next, bits uint64) {
	next = state + 0x9e3779b97f4a7c15
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return next, z ^ (z >> 31)
}

// UnitFloat64 maps 64 random bits to a float64 in [0, 1) — the
// conversion RNG.Float64 applies to RNG.Uint64.
func UnitFloat64(bits uint64) float64 {
	return float64(bits>>11) * (1.0 / (1 << 53))
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	var bits uint64
	r.state, bits = Step(r.state)
	return bits
}

// Uint32 returns the next 32 uniformly random bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float32 returns a uniformly random float32 in [0, 1). The product is
// rounded explicitly so that no caller's arithmetic fuses with it.
func (r *RNG) Float32() float32 {
	return float32(float32(r.Uint64()>>40) * (1.0 / (1 << 24)))
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 { return UnitFloat64(r.Uint64()) }

// Norm returns a normally distributed float32 with mean 0 and the given
// standard deviation, using the Box-Muller transform: two draws u1 and
// u2 (u1 drawn again while it is 0, to guard against log(0)), then
// float32(√(−2·ln u1)·cos(2π·u2))·std. The logarithm and cosine are
// FMA-free replicas of amd64's math.Log and math.Cos (norm.go), so the
// bits are the same on every architecture. tensor.FillNorm writes a
// run of these draws on an AVX2 kernel held to the same bits.
func (r *RNG) Norm(std float32) float32 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := float64(math.Sqrt(-2*logUnit(u1)) * cosTurn(float64(2*math.Pi*u2)))
	return float32(float32(z) * std)
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n indices in place via the swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
