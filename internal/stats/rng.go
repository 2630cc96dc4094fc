package stats

import "math/bits"

// RNG is a splitmix64 pseudo-random generator. It is the single RNG used
// everywhere in the repository because (a) it is fully deterministic from
// its seed, which time traveling requires — every pass must replay exactly
// the same execution — and (b) it is an order of magnitude faster than
// math/rand for the hot address-generation loops.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped so the
// sequence is never degenerate).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// State returns the generator's internal state for checkpointing. A
// generator restored with SetState(State()) produces the identical
// sequence from that point on.
func (r *RNG) State() uint64 { return r.state }

// SetState restores a state previously obtained from State. Unlike NewRNG
// it performs no zero-remapping: the value is the exact internal state,
// not a seed.
func (r *RNG) SetState(s uint64) { r.state = s }

// gamma is splitmix64's state increment: one draw adds it to the state.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next value (splitmix64).
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Jump advances the generator by n draws in O(1): the state of splitmix64
// after n draws is its current state plus n increments.
func (r *RNG) Jump(n uint64) { r.state += n * gamma }

// Uint64n returns a value uniform in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	hi, _ := bits.Mul64(r.Uint64(), n)
	return hi
}

// Float64 returns a value uniform in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }
