package statstack

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// fuzzHist deterministically builds a reuse-distance histogram from fuzz
// inputs: seed drives the sample stream, spread bounds the distance range,
// coldN adds cold references. Degenerate inputs (spread 0) yield an empty
// histogram, which the model must also survive.
func fuzzHist(seed, spread uint64, n uint16, coldN uint8) *stats.RDHist {
	h := &stats.RDHist{}
	r := stats.NewRNG(seed)
	if spread > 1<<40 {
		spread = 1 << 40
	}
	for i := 0; i < int(n); i++ {
		if spread == 0 {
			break
		}
		h.Add(1 + r.Uint64n(spread))
	}
	for i := 0; i < int(coldN); i++ {
		h.AddCold(1)
	}
	return h
}

// FuzzStackDistMonotone: for any histogram, StackDist must be monotone
// non-decreasing in d, bounded by d itself, and non-negative.
func FuzzStackDistMonotone(f *testing.F) {
	f.Add(uint64(1), uint64(1000), uint16(500), uint8(3), uint64(10), uint64(100))
	f.Add(uint64(42), uint64(1<<20), uint16(2000), uint8(0), uint64(1), uint64(1<<21))
	f.Add(uint64(7), uint64(0), uint16(0), uint8(5), uint64(2), uint64(3))
	f.Add(uint64(99), uint64(1<<33), uint16(100), uint8(200), uint64(1<<30), uint64(1<<34))
	f.Fuzz(func(t *testing.T, seed, spread uint64, n uint16, coldN uint8, d1, d2 uint64) {
		if d1 > 1<<45 {
			d1 %= 1 << 45
		}
		if d2 > 1<<45 {
			d2 %= 1 << 45
		}
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		m := New(fuzzHist(seed, spread, n, coldN))
		s1, s2 := m.StackDist(d1), m.StackDist(d2)
		if s1 < 0 || s2 < 0 {
			t.Fatalf("negative stack distance: s(%d)=%f s(%d)=%f", d1, s1, d2, s2)
		}
		if s1 > s2+1e-9 {
			t.Fatalf("StackDist not monotone: s(%d)=%f > s(%d)=%f", d1, s1, d2, s2)
		}
		if s1 > float64(d1)+1e-6 || s2 > float64(d2)+1e-6 {
			t.Fatalf("StackDist exceeds reuse distance: s(%d)=%f s(%d)=%f", d1, s1, d2, s2)
		}
	})
}

// FuzzMissRatioModel: for any histogram and cache-size pair, the predicted
// miss ratio must stay in [0,1] and be non-increasing in cache size, and
// ThresholdRD must be the StackDist inverse: s(thr) >= lines > s(thr-1).
func FuzzMissRatioModel(f *testing.F) {
	f.Add(uint64(1), uint64(1000), uint16(500), uint8(3), uint64(64), uint64(4096))
	f.Add(uint64(13), uint64(1<<18), uint16(3000), uint8(10), uint64(1), uint64(1<<20))
	f.Add(uint64(5), uint64(4), uint16(50), uint8(0), uint64(1024), uint64(1024))
	f.Add(uint64(77), uint64(1<<30), uint16(400), uint8(40), uint64(1<<16), uint64(1<<24))
	f.Fuzz(func(t *testing.T, seed, spread uint64, n uint16, coldN uint8, small, big uint64) {
		if small > 1<<40 {
			small %= 1 << 40
		}
		if big > 1<<40 {
			big %= 1 << 40
		}
		if small > big {
			small, big = big, small
		}
		h := fuzzHist(seed, spread, n, coldN)
		m := New(h)
		mrSmall, mrBig := m.MissRatio(h, small), m.MissRatio(h, big)
		for _, mr := range []float64{mrSmall, mrBig} {
			if mr < 0 || mr > 1 || math.IsNaN(mr) {
				t.Fatalf("miss ratio out of [0,1]: small=%f big=%f", mrSmall, mrBig)
			}
		}
		if mrBig > mrSmall+1e-9 {
			t.Fatalf("miss ratio increased with cache size: %f @%d -> %f @%d",
				mrSmall, small, mrBig, big)
		}
		// Threshold/StackDist inverse consistency.
		for _, lines := range []uint64{small, big} {
			if lines == 0 {
				continue
			}
			thr := m.ThresholdRD(lines)
			if thr == 0 {
				t.Fatalf("ThresholdRD(%d) = 0", lines)
			}
			if s := m.StackDist(thr); s < float64(lines) && thr < 1<<48 {
				t.Fatalf("StackDist(thr=%d) = %f < %d lines", thr, s, lines)
			}
			if thr > 1 && thr < 1<<48 {
				if s := m.StackDist(thr - 1); s >= float64(lines) {
					t.Fatalf("thr %d not minimal: StackDist(thr-1) = %f >= %d", thr, s, lines)
				}
			}
		}
	})
}
