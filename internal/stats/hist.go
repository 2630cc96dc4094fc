// Package stats provides the small statistical toolkit used throughout the
// reproduction: log-bucketed histograms of reuse distances, reservoir
// sampling, summary statistics and a named-counter ledger.
//
// Reuse-distance distributions span eight orders of magnitude (from a few
// accesses to beyond a billion), so the histograms bucket logarithmically
// with a configurable number of sub-buckets per octave. This is the same
// trade-off StatStack makes: the model needs the complementary CDF shape,
// not exact per-distance counts.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// SubBuckets is the number of histogram buckets per power of two. Four
// sub-buckets bound the relative quantization error of a reuse distance to
// about 19%, which is far below the sampling noise of sparse profiling.
const SubBuckets = 4

// maxOctaves covers distances up to 2^48, vastly beyond any warm-up window.
const maxOctaves = 48

// RDHist is a log-bucketed histogram of reuse distances with an explicit
// "cold" bin for references that have no earlier reuse (infinite distance).
// Samples may carry weights so that sparse profiles can represent the full
// population (a sample taken with rate 1/R is added with weight R).
type RDHist struct {
	buckets [maxOctaves * SubBuckets]float64
	total   float64 // weight of all finite samples
	cold    float64 // weight of infinite-distance samples
	n       uint64  // raw (unweighted) number of Add calls
}

// bucketOf maps a distance to its bucket index. Within octave `oct`
// (distances [2^oct, 2^(oct+1))) the sub-bucket width is
// max(1, 2^oct/SubBuckets); octaves narrower than SubBuckets therefore use
// fewer than SubBuckets effective buckets and leave the rest empty.
// subShift is log2(SubBuckets): the sub-bucket division reduces to a shift
// because both the octave base and SubBuckets are powers of two — this
// function runs once per observed reuse distance, so no division allowed.
// Both guards underflow a uint64 conversion unless 1<<subShift == SubBuckets.
const (
	subShift = 2
	_        = uint64(SubBuckets - 1<<subShift)
	_        = uint64(1<<subShift - SubBuckets)
)

func bucketOf(d uint64) int {
	if d < 2 {
		return 0
	}
	oct := bits.Len64(d) - 1 // floor(log2 d), >= 1
	base := uint64(1) << uint(oct)
	var sub uint64
	if oct >= subShift {
		sub = (d - base) >> uint(oct-subShift)
	} else {
		sub = d - base // octave narrower than SubBuckets: unit steps
	}
	if sub > SubBuckets-1 {
		sub = SubBuckets - 1
	}
	idx := oct*SubBuckets + int(sub)
	if idx >= maxOctaves*SubBuckets {
		idx = maxOctaves*SubBuckets - 1
	}
	return idx
}

// bucketBounds returns the [lo, hi) distance range of bucket i. Degenerate
// buckets of narrow octaves return an empty range (hi == lo).
func bucketBounds(i int) (lo, hi uint64) {
	oct := i / SubBuckets
	sub := i % SubBuckets
	if oct == 0 {
		if sub == 0 {
			return 0, 2
		}
		return 2, 2 // degenerate
	}
	base := uint64(1) << uint(oct)
	step := base / SubBuckets
	if step == 0 {
		step = 1
	}
	lo = base + uint64(sub)*step
	hi = lo + step
	top := base << 1
	if sub == SubBuckets-1 || hi > top {
		hi = top
	}
	if lo > top {
		lo = top
	}
	return lo, hi
}

// Add records one reuse distance with weight 1.
func (h *RDHist) Add(d uint64) { h.AddWeighted(d, 1) }

// AddWeighted records one reuse distance with the given weight.
func (h *RDHist) AddWeighted(d uint64, w float64) {
	h.buckets[bucketOf(d)] += w
	h.total += w
	h.n++
}

// AddCold records a reference with no earlier reuse (infinite distance).
func (h *RDHist) AddCold(w float64) {
	h.cold += w
	h.n++
}

// Merge adds every bucket of o into h.
func (h *RDHist) Merge(o *RDHist) {
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.total += o.total
	h.cold += o.cold
	h.n += o.n
}

// Samples returns the raw number of Add/AddCold calls.
func (h *RDHist) Samples() uint64 { return h.n }

// Weight returns the total weight including cold references.
func (h *RDHist) Weight() float64 { return h.total + h.cold }

// ColdFraction returns the weighted fraction of cold references.
func (h *RDHist) ColdFraction() float64 {
	if w := h.Weight(); w > 0 {
		return h.cold / w
	}
	return 0
}

// CCDF returns P(RD > x) over *finite* samples, with cold references
// counted as larger than any x. The piecewise-uniform assumption inside a
// bucket mirrors StatStack's treatment.
func (h *RDHist) CCDF(x uint64) float64 {
	w := h.Weight()
	if w == 0 {
		return 0
	}
	above := h.cold
	b := bucketOf(x)
	for i := b + 1; i < len(h.buckets); i++ {
		above += h.buckets[i]
	}
	// Fraction of the containing bucket that lies above x.
	lo, hi := bucketBounds(b)
	if h.buckets[b] > 0 && hi > lo {
		frac := float64(hi-1-x) / float64(hi-lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		above += h.buckets[b] * frac
	}
	return above / w
}

// Quantile returns the smallest distance d such that at least q of the
// finite weight is ≤ d. It is used by tests and report summaries.
func (h *RDHist) Quantile(q float64) uint64 {
	if h.total == 0 {
		return 0
	}
	target := q * h.total
	var cum float64
	for i := range h.buckets {
		cum += h.buckets[i]
		if cum >= target {
			lo, hi := bucketBounds(i)
			if hi > 0 {
				return (lo + hi - 1) / 2
			}
			return lo
		}
	}
	lo, hi := bucketBounds(len(h.buckets) - 1)
	_ = lo
	return hi
}

// Mean returns the weighted mean of the finite distances (bucket midpoints).
func (h *RDHist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for i, w := range h.buckets {
		if w == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		sum += w * (float64(lo) + float64(hi-1)) / 2
	}
	return sum / h.total
}

// Buckets iterates over non-empty buckets as (loDistance, hiDistance, weight).
func (h *RDHist) Buckets(f func(lo, hi uint64, w float64)) {
	for i, w := range h.buckets {
		if w == 0 {
			continue
		}
		lo, hi := bucketBounds(i)
		f(lo, hi, w)
	}
}

// rdHistJSON is the persisted form of an RDHist: the bucket array is
// sparse (most of the 192 log buckets are empty for any real profile), so
// buckets are stored as [index, weight] pairs. Total/cold/n are stored
// explicitly so a decoded histogram is bit-identical to the original, not
// merely re-derivable.
type rdHistJSON struct {
	Buckets [][2]float64 `json:"buckets,omitempty"`
	Total   float64      `json:"total"`
	Cold    float64      `json:"cold"`
	N       uint64       `json:"n"`
}

// MarshalJSON encodes the histogram sparsely (see rdHistJSON).
func (h *RDHist) MarshalJSON() ([]byte, error) {
	j := rdHistJSON{Total: h.total, Cold: h.cold, N: h.n}
	for i, w := range h.buckets {
		if w != 0 {
			j.Buckets = append(j.Buckets, [2]float64{float64(i), w})
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores a histogram encoded by MarshalJSON.
func (h *RDHist) UnmarshalJSON(b []byte) error {
	var j rdHistJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*h = RDHist{total: j.Total, cold: j.Cold, n: j.N}
	for _, p := range j.Buckets {
		i := int(p[0])
		if i < 0 || i >= len(h.buckets) {
			return fmt.Errorf("stats: RDHist bucket index %d out of range", i)
		}
		h.buckets[i] = p[1]
	}
	return nil
}

// String summarizes the histogram for debugging.
func (h *RDHist) String() string {
	return fmt.Sprintf("RDHist{n=%d w=%.1f cold=%.1f p50=%d p90=%d}",
		h.n, h.Weight(), h.cold, h.Quantile(0.5), h.Quantile(0.9))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// GeoMean returns the geometric mean of xs; non-positive values are skipped.
func GeoMean(xs []float64) float64 {
	var s float64
	var n int
	for _, x := range xs {
		if x > 0 {
			s += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(s / float64(n))
}
