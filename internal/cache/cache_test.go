package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/stats"
)

func smallCache(sizeLines uint64, assoc int) *Cache {
	return New(Config{Name: "t", SizeB: sizeLines * mem.LineSize, Assoc: assoc, HitLat: 1})
}

func TestLookupBasics(t *testing.T) {
	c := smallCache(8, 2) // 4 sets, 2 ways
	if out, _, _ := c.Lookup(0); out != Miss {
		t.Fatal("first access should miss")
	}
	if out, _, _ := c.Lookup(0); out != Hit {
		t.Fatal("second access should hit")
	}
	if c.NHits != 1 || c.NMisses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", c.NHits, c.NMisses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(8, 2) // 4 sets: lines 0,4,8 map to set 0
	c.Lookup(0)
	c.Lookup(4)
	c.Lookup(0) // make line 4 LRU
	_, victim, evicted := c.Lookup(8)
	if !evicted || victim != 4 {
		t.Fatalf("victim = %d (evicted=%v), want 4", victim, evicted)
	}
	if !c.Probe(0) || !c.Probe(8) || c.Probe(4) {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := smallCache(8, 2)
	c.Lookup(0)
	c.Lookup(4)
	// Probing line 0 must not refresh its LRU age.
	for i := 0; i < 10; i++ {
		c.Probe(0)
	}
	_, victim, _ := c.Lookup(8)
	if victim != 0 {
		t.Fatalf("victim = %d, want 0 (probe must not refresh LRU)", victim)
	}
	h, m := c.NHits, c.NMisses
	c.Probe(0)
	if c.NHits != h || c.NMisses != m {
		t.Fatal("probe perturbed statistics")
	}
}

func TestSetFull(t *testing.T) {
	c := smallCache(8, 2)
	if c.SetFull(0) {
		t.Fatal("empty set reported full")
	}
	c.Lookup(0)
	if c.SetFull(0) {
		t.Fatal("half-full set reported full")
	}
	c.Lookup(4)
	if !c.SetFull(0) {
		t.Fatal("full set not reported full")
	}
	if c.SetFull(1) {
		t.Fatal("other set affected")
	}
}

func TestInstall(t *testing.T) {
	c := smallCache(8, 2)
	h, m := c.NHits, c.NMisses
	c.Install(0)
	if c.NHits != h || c.NMisses != m {
		t.Fatal("Install must not count statistics")
	}
	if !c.Probe(0) {
		t.Fatal("installed line absent")
	}
	// Install into a full set evicts LRU.
	c.Install(4)
	c.Install(8)
	if c.Probe(0) {
		t.Fatal("LRU line should have been displaced by Install")
	}
}

// Property: occupancy never exceeds capacity, for random access sequences.
func TestOccupancyBound(t *testing.T) {
	f := func(seed uint64) bool {
		c := smallCache(64, 4)
		r := stats.NewRNG(seed)
		for i := 0; i < 2000; i++ {
			c.Lookup(mem.Line(r.Uint64n(1000)))
		}
		return c.Occupancy() <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property (LRU inclusion): for fully-associative LRU caches, every hit in
// a smaller cache is a hit in a larger cache on the same trace. This is the
// stack property that makes stack distance well-defined — the foundation of
// the paper's statistical model.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		small := New(Config{SizeB: 16 * mem.LineSize, Assoc: 16, HitLat: 1})
		big := New(Config{SizeB: 64 * mem.LineSize, Assoc: 64, HitLat: 1})
		r := stats.NewRNG(seed)
		for i := 0; i < 3000; i++ {
			l := mem.Line(r.Uint64n(128))
			outS, _, _ := small.Lookup(l)
			outB, _, _ := big.Lookup(l)
			if outS == Hit && outB != Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Exact stack-distance check: with a fully-associative LRU cache of C
// lines, a cyclic sweep over N lines hits iff N <= C.
func TestCyclicSweep(t *testing.T) {
	for _, tc := range []struct {
		lines  uint64
		expect bool // steady-state hits?
	}{{16, true}, {32, true}, {33, false}, {64, false}} {
		c := New(Config{SizeB: 32 * mem.LineSize, Assoc: 32, HitLat: 1})
		// Two warm-up sweeps, then measure.
		for s := 0; s < 2; s++ {
			for l := uint64(0); l < tc.lines; l++ {
				c.Lookup(mem.Line(l))
			}
		}
		c.NHits, c.NMisses = 0, 0
		for l := uint64(0); l < tc.lines; l++ {
			c.Lookup(mem.Line(l))
		}
		allHit := c.NMisses == 0
		if allHit != tc.expect {
			t.Errorf("sweep %d lines over 32-line LRU: allHit=%v, want %v", tc.lines, allHit, tc.expect)
		}
	}
}

func TestReset(t *testing.T) {
	c := smallCache(8, 2)
	c.Lookup(1)
	c.Reset()
	if c.Occupancy() != 0 || c.NMisses != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestMissRatio(t *testing.T) {
	c := smallCache(8, 2)
	c.Lookup(1)
	c.Lookup(1)
	if got := c.MissRatio(); got != 0.5 {
		t.Fatalf("MissRatio = %f, want 0.5", got)
	}
	if New(Config{SizeB: 64, Assoc: 1}).MissRatio() != 0 {
		t.Fatal("empty cache MissRatio should be 0")
	}
}
