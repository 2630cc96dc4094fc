package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBucketBoundsPartition(t *testing.T) {
	// Non-empty buckets must tile the distance axis without gaps or
	// overlaps; narrow octaves may contain degenerate (empty) buckets.
	prevHi := uint64(0)
	for i := 0; i < maxOctaves*SubBuckets; i++ {
		lo, hi := bucketBounds(i)
		if hi <= lo {
			continue // degenerate bucket in a narrow octave
		}
		if lo != prevHi {
			t.Fatalf("bucket %d = [%d,%d), want lo = %d (contiguous)", i, lo, hi, prevHi)
		}
		prevHi = hi
	}
	if prevHi < 1<<47 {
		t.Fatalf("coverage ends at %d, want >= 2^47", prevHi)
	}
}

func TestBucketOfWithinBounds(t *testing.T) {
	f := func(d uint64) bool {
		d %= 1 << 40
		i := bucketOf(d)
		lo, hi := bucketBounds(i)
		return lo <= d && d < hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCCDFMonotone(t *testing.T) {
	h := &RDHist{}
	r := NewRNG(42)
	for i := 0; i < 10000; i++ {
		h.Add(r.Uint64n(1 << 20))
	}
	h.AddCold(100)
	prev := 1.1
	for x := uint64(1); x < 1<<21; x *= 2 {
		c := h.CCDF(x)
		if c > prev+1e-9 {
			t.Fatalf("CCDF not monotone: CCDF(%d)=%f > prev %f", x, c, prev)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CCDF(%d)=%f out of range", x, c)
		}
		prev = c
	}
	// Cold weight is always above any finite x.
	if got := h.CCDF(1 << 40); got < 100.0/h.Weight()-1e-9 {
		t.Fatalf("CCDF at huge x = %f, want >= cold fraction %f", got, 100.0/h.Weight())
	}
}

func TestCCDFPointMass(t *testing.T) {
	h := &RDHist{}
	for i := 0; i < 1000; i++ {
		h.Add(1000)
	}
	if c := h.CCDF(2000); c > 0.01 {
		t.Errorf("CCDF(2000) = %f, want ~0", c)
	}
	if c := h.CCDF(100); c < 0.99 {
		t.Errorf("CCDF(100) = %f, want ~1", c)
	}
}

func TestHistMeanAndQuantile(t *testing.T) {
	h := &RDHist{}
	for i := 0; i < 1000; i++ {
		h.Add(64)
	}
	m := h.Mean()
	if m < 50 || m > 90 {
		t.Errorf("Mean = %f, want near 64 (bucket midpoint tolerance)", m)
	}
	q := h.Quantile(0.5)
	if q < 48 || q > 96 {
		t.Errorf("Quantile(0.5) = %d, want near 64", q)
	}
}

func TestHistMerge(t *testing.T) {
	a, b := &RDHist{}, &RDHist{}
	a.Add(10)
	b.Add(1000)
	b.AddCold(1)
	a.Merge(b)
	if a.Samples() != 3 {
		t.Errorf("Samples = %d, want 3", a.Samples())
	}
	if math.Abs(a.Weight()-3) > 1e-9 {
		t.Errorf("Weight = %f, want 3", a.Weight())
	}
}

func TestWeightedSamples(t *testing.T) {
	// A sample with weight 100 must look like 100 unit samples.
	a, b := &RDHist{}, &RDHist{}
	a.AddWeighted(500, 100)
	for i := 0; i < 100; i++ {
		b.Add(500)
	}
	for _, x := range []uint64{100, 400, 600, 2000} {
		if math.Abs(a.CCDF(x)-b.CCDF(x)) > 1e-9 {
			t.Errorf("CCDF(%d): weighted %f != repeated %f", x, a.CCDF(x), b.CCDF(x))
		}
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Mean(xs); m != 2.5 {
		t.Errorf("Mean = %f, want 2.5", m)
	}
	if m := Median(xs); m != 2.5 {
		t.Errorf("Median = %f, want 2.5", m)
	}
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("Median odd = %f, want 2", m)
	}
	g := GeoMean([]float64{1, 4})
	if math.Abs(g-2) > 1e-9 {
		t.Errorf("GeoMean = %f, want 2", g)
	}
	if Mean(nil) != 0 || GeoMean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input summaries should be 0")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Inc("a")
	c.Add("a", 2)
	c.Add("win/x", 10)
	c.Add("fix/y", 5)
	if c.Get("a") != 3 {
		t.Errorf("a = %f, want 3", c.Get("a"))
	}
	c.Scale("win/", 64)
	if c.Get("win/x") != 640 {
		t.Errorf("win/x = %f, want 640", c.Get("win/x"))
	}
	if c.Get("fix/y") != 5 {
		t.Errorf("fix/y = %f, want 5 (unscaled)", c.Get("fix/y"))
	}
	d := NewCounters()
	d.Add("a", 1)
	c.Merge(d)
	if c.Get("a") != 4 {
		t.Errorf("merged a = %f, want 4", c.Get("a"))
	}
	if len(c.Names()) != 3 {
		t.Errorf("Names = %v, want 3 entries", c.Names())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

// TestRNGJump: Jump(n) lands where n draws do, across the uint64 wrap of
// the state.
func TestRNGJump(t *testing.T) {
	for _, seed := range []uint64{7, ^uint64(0) - 3} {
		a, b := NewRNG(seed), NewRNG(seed)
		for n := uint64(0); n < 300; n += 37 {
			for i := uint64(0); i < n; i++ {
				a.Uint64()
			}
			b.Jump(n)
			if a.State() != b.State() || a.Uint64() != b.Uint64() {
				t.Fatalf("seed %d: Jump(%d) left state %d, %d draws %d", seed, n, b.State(), n, a.State())
			}
		}
	}
}

func TestRNGUniform(t *testing.T) {
	r := NewRNG(1)
	const n = 200000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[r.Uint64n(10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d frac = %f, want ~0.1", i, frac)
		}
	}
	// Float64 stays in [0,1).
	for i := 0; i < 1000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f out of range", f)
		}
	}
}
