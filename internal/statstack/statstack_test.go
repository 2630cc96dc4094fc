package statstack

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
)

// pointMass builds a histogram where every reuse distance equals d.
func pointMass(d uint64, n int) *stats.RDHist {
	h := &stats.RDHist{}
	for i := 0; i < n; i++ {
		h.Add(d)
	}
	return h
}

// TestCyclicExact: for a cyclic sweep over N lines every reuse distance is
// N and all N-1 intervening accesses are unique, so s(N) ~ N-1 and the miss
// ratio is ~0 for caches >= N lines and ~1 below.
func TestCyclicExact(t *testing.T) {
	const N = 1024
	h := pointMass(N, 10000)
	m := New(h)
	s := m.StackDist(N)
	if s < 0.75*N || s > 1.05*N {
		t.Errorf("StackDist(%d) = %f, want ~%d (bucket quantization tolerance)", N, s, N-1)
	}
	if mr := m.MissRatio(h, 2*N); mr > 0.05 {
		t.Errorf("MissRatio(big cache) = %f, want ~0", mr)
	}
	if mr := m.MissRatio(h, N/4); mr < 0.95 {
		t.Errorf("MissRatio(small cache) = %f, want ~1", mr)
	}
}

// Property: stack distance is monotone non-decreasing in reuse distance
// and never exceeds the reuse distance itself.
func TestStackDistMonotoneBounded(t *testing.T) {
	h := &stats.RDHist{}
	r := stats.NewRNG(5)
	for i := 0; i < 20000; i++ {
		h.Add(1 + r.Uint64n(1<<22))
	}
	h.AddCold(200)
	m := New(h)
	f := func(a, b uint64) bool {
		a %= 1 << 24
		b %= 1 << 24
		if a > b {
			a, b = b, a
		}
		sa, sb := m.StackDist(a), m.StackDist(b)
		return sa <= sb+1e-9 && sa <= float64(a)+1e-9 && sb <= float64(b)+1e-9 && sa >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: miss ratio is non-increasing in cache size.
func TestMissRatioMonotone(t *testing.T) {
	h := &stats.RDHist{}
	r := stats.NewRNG(6)
	for i := 0; i < 20000; i++ {
		h.Add(1 + r.Uint64n(1<<20))
	}
	m := New(h)
	prev := 1.1
	for c := uint64(16); c < 1<<22; c *= 4 {
		mr := m.MissRatio(h, c)
		if mr > prev+1e-9 {
			t.Fatalf("miss ratio increased with size at %d: %f > %f", c, mr, prev)
		}
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio %f out of range", mr)
		}
		prev = mr
	}
}

// TestThresholdConsistency: ThresholdRD must be the inverse of StackDist.
func TestThresholdConsistency(t *testing.T) {
	h := &stats.RDHist{}
	r := stats.NewRNG(7)
	for i := 0; i < 30000; i++ {
		h.Add(1 + r.Uint64n(1<<18))
	}
	m := New(h)
	for _, lines := range []uint64{64, 1024, 1 << 14} {
		thr := m.ThresholdRD(lines)
		if thr > 1 && m.StackDist(thr-1) >= float64(lines) {
			t.Errorf("ThresholdRD(%d)=%d not minimal", lines, thr)
		}
		if m.StackDist(thr) < float64(lines) && thr < 1<<48 {
			t.Errorf("ThresholdRD(%d)=%d: StackDist=%f < %d", lines, thr, m.StackDist(thr), lines)
		}
	}
}

// TestEmptyModelConservative: with no samples, s(d) = d.
func TestEmptyModelConservative(t *testing.T) {
	m := New(nil)
	if s := m.StackDist(1000); s != 1000 {
		t.Errorf("empty model StackDist(1000) = %f, want 1000", s)
	}
	if s := m.StackDist(1); s != 0 {
		t.Errorf("StackDist(1) = %f, want 0", s)
	}
}

// TestUniformRandomModel: for uniform random accesses over L lines, the
// stack distance of a reuse of d approaches L(1 - e^{-d/L}).
func TestUniformRandomModel(t *testing.T) {
	const L = 4096
	h := &stats.RDHist{}
	r := stats.NewRNG(8)
	// Geometric reuse distances with mean L (uniform random line choice).
	for i := 0; i < 200000; i++ {
		d := uint64(1)
		for r.Float64() > 1.0/L && d < 1<<24 {
			d++
		}
		h.Add(d)
	}
	m := New(h)
	for _, d := range []uint64{L / 2, L, 4 * L} {
		want := L * (1 - math.Exp(-float64(d)/L))
		got := m.StackDist(d)
		if math.Abs(got-want)/want > 0.15 {
			t.Errorf("StackDist(%d) = %f, want ~%f", d, got, want)
		}
	}
}

// TestAssocModelDominantStride: a 8-line stride touches 1/8 of the sets;
// the factor should be near 1/8.
func TestAssocModelDominantStride(t *testing.T) {
	m := NewAssocModel()
	const sets = 64
	for i := 0; i < 4096; i++ {
		m.AddLine(mem.Line(i * 8)) // only sets 0, 8, 16, ... mod 64
	}
	f := m.EffectiveFactor(sets)
	if f < 0.10 || f > 0.16 {
		t.Errorf("factor = %f, want ~1/8", f)
	}
	eff := m.EffectiveLines(512, sets)
	if eff < 50 || eff > 90 {
		t.Errorf("effective lines = %d, want ~64", eff)
	}
}

// TestAssocModelUniform: uniform usage must give factor ~1.
func TestAssocModelUniform(t *testing.T) {
	m := NewAssocModel()
	r := stats.NewRNG(9)
	for i := 0; i < 4096; i++ {
		m.AddLine(mem.Line(r.Uint64n(1 << 20)))
	}
	if f := m.EffectiveFactor(64); f < 0.95 {
		t.Errorf("uniform factor = %f, want ~1", f)
	}
}

// TestAssocModelSparseSample: with too few samples the model must abstain
// (factor 1), never inventing conflicts from sampling noise.
func TestAssocModelSparseSample(t *testing.T) {
	m := NewAssocModel()
	for i := 0; i < 10; i++ {
		m.AddLine(mem.Line(i * 64))
	}
	if f := m.EffectiveFactor(1024); f != 1 {
		t.Errorf("sparse-sample factor = %f, want 1", f)
	}
}
