// Package xrand provides a small, fast, deterministic random number
// generator (SplitMix64) used everywhere randomness is needed — simulator
// noise, search tie-breaking, workload synthesis — so that every experiment
// in the repository is exactly reproducible from its seed.
package xrand

import "math"

// RNG is a SplitMix64 generator. The zero value is a valid generator seeded
// with 0; prefer New.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 1e-300 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// LogNormal returns exp(mu + sigma*N(0,1)). With mu = -sigma²/2 the mean is
// 1, which is how the simulator injects run-to-run noise with unit mean.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// UnitMeanLogNormal returns a log-normal multiplicative noise factor with
// mean 1 and the given coefficient-of-variation-like sigma.
func (r *RNG) UnitMeanLogNormal(sigma float64) float64 {
	return r.LogNormal(-sigma*sigma/2, sigma)
}
