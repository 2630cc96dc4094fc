// Package statstack implements the statistical cache models the paper
// builds on:
//
//   - StatStack (Eklov & Hagersten, ISPASS 2010): converts reuse distances
//     — cheap to sample — into stack distances, which directly predict
//     hit/miss in fully-associative LRU caches. This is the model both RSW
//     (CoolSim) and DSW (DeLorean) feed with their sampled distributions.
//   - The limited-associativity model of CoolSim: dominant large strides
//     concentrate accesses in a subset of the cache sets, effectively
//     shrinking the cache; the classifier uses it to call conflict misses.
//
// The key StatStack identity: for an access pair with reuse distance d, an
// intervening access contributes one unique line iff its own forward reuse
// extends past the window, so the expected stack distance is
//
//	s(d) = sum_{x=1}^{d-1} P(RD > x)
//
// where P is taken over the sampled reuse-distance distribution (cold
// references count as infinite). s is monotone in d, so "stack distance
// exceeds cache size" reduces to "reuse distance exceeds a threshold",
// which is how the classifier uses the model.
package statstack

import (
	"slices"
	"sort"

	"repro/internal/stats"
)

// Model converts reuse distances to stack distances under a fixed reuse
// distribution. Build one with New from a sampled histogram.
type Model struct {
	// Piecewise-linear CCDF representation: boundary distances and the
	// CCDF value at each boundary, plus the running integral of the CCDF
	// from x=1 to each boundary.
	xs   []float64
	ccdf []float64
	cum  []float64
	cold float64
	ok   bool
}

// New builds a StatStack model from a reuse-distance histogram. A nil or
// empty histogram yields the conservative identity model s(d) = d (every
// intervening access assumed unique).
func New(h *stats.RDHist) *Model {
	m := &Model{}
	if h == nil || h.Weight() == 0 {
		return m
	}
	m.cold = h.ColdFraction()
	// Collect bucket boundaries.
	var bounds []uint64
	h.Buckets(func(lo, hi uint64, w float64) {
		bounds = append(bounds, lo, hi)
	})
	if len(bounds) == 0 {
		return m
	}
	// slices.Sort/Compact specialize on uint64 — the reflection-driven
	// sort.Slice showed up in calibration-path profiles (a model is built
	// per region per PC under RSW).
	slices.Sort(bounds)
	uniq := slices.Compact(bounds)
	if uniq[0] != 0 {
		uniq = append([]uint64{0}, uniq...)
	}
	m.xs = make([]float64, len(uniq))
	m.ccdf = make([]float64, len(uniq))
	m.cum = make([]float64, len(uniq))
	for i, b := range uniq {
		m.xs[i] = float64(b)
		m.ccdf[i] = h.CCDF(b)
	}
	for i := 1; i < len(uniq); i++ {
		dx := m.xs[i] - m.xs[i-1]
		m.cum[i] = m.cum[i-1] + dx*(m.ccdf[i-1]+m.ccdf[i])/2
	}
	m.ok = true
	return m
}

// StackDist returns the expected stack distance (unique intervening lines)
// for a reuse distance of d memory accesses.
func (m *Model) StackDist(d uint64) float64 {
	if d <= 1 {
		return 0
	}
	if !m.ok {
		return float64(d) // conservative: all intervening accesses unique
	}
	x := float64(d)
	i := sort.SearchFloat64s(m.xs, x)
	if i >= len(m.xs) {
		// Beyond the last boundary the CCDF is the cold fraction.
		last := len(m.xs) - 1
		return m.cum[last] + (x-m.xs[last])*m.cold
	}
	if m.xs[i] == x {
		return m.cum[i]
	}
	// Interpolate inside segment [i-1, i].
	x0, x1 := m.xs[i-1], m.xs[i]
	c0, c1 := m.ccdf[i-1], m.ccdf[i]
	frac := (x - x0) / (x1 - x0)
	cAt := c0 + (c1-c0)*frac
	return m.cum[i-1] + (x-x0)*(c0+cAt)/2
}

// ThresholdRD returns the smallest reuse distance whose expected stack
// distance reaches cacheLines: reuses at or beyond the threshold are
// predicted capacity misses in an LRU cache of that size.
func (m *Model) ThresholdRD(cacheLines uint64) uint64 {
	if cacheLines == 0 {
		return 0
	}
	lo, hi := uint64(1), uint64(1)<<48
	if m.StackDist(hi) < float64(cacheLines) {
		return hi
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if m.StackDist(mid) >= float64(cacheLines) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// MissRatio predicts the miss ratio of a fully-associative LRU cache with
// cacheLines lines under this reuse distribution: the probability that a
// reuse distance exceeds the threshold, plus the cold fraction (already
// included in the CCDF).
func (m *Model) MissRatio(h *stats.RDHist, cacheLines uint64) float64 {
	if h == nil || h.Weight() == 0 {
		return 0
	}
	thr := m.ThresholdRD(cacheLines)
	return h.CCDF(thr)
}
