package cache

import (
	"reflect"
	"testing"

	"repro/internal/mem"
)

// lookup2 exists because the 2-way L1s front every access, and its value
// depends on being a pure specialization: for assoc=2 it must make the
// decision lookupN would make, in every state — same outcome, same victim,
// same eviction flag, same replacement-state update.
// These tests pin that equivalence step by step on two caches driven with
// identical streams, one through each scan, seeded with the patterns the
// SoA rewrite is most likely to break: empty-way priority (which invalid
// way wins installation) and tick wrap-around (age re-use across the wrap).

// driveEquiv feeds the line stream through a lookup2-driven and a
// lookupN-driven cache (same config, assoc=2, tick pre-seeded) and fails
// on the first divergence in per-access decisions or in whole-cache state.
func driveEquiv(t *testing.T, tickStart uint64, lines []mem.Line) {
	t.Helper()
	cfg := Config{Name: "equiv", SizeB: 4 * mem.LineSize, Assoc: 2, HitLat: 3}
	c2 := New(cfg)
	cN := New(cfg)
	c2.tick, cN.tick = tickStart, tickStart
	for i, l := range lines {
		c2.tick++
		out2, vic2, ev2 := c2.lookup2(l)
		cN.tick++
		outN, vicN, evN := cN.lookupN(l)
		if out2 != outN || vic2 != vicN || ev2 != evN {
			t.Fatalf("access %d (line %d, tick0 %d): lookup2 -> (%v, %d, %v), lookupN -> (%v, %d, %v)",
				i, l, tickStart, out2, vic2, ev2, outN, vicN, evN)
		}
		if !reflect.DeepEqual(c2.State(), cN.State()) {
			t.Fatalf("access %d (line %d, tick0 %d): states diverged:\nlookup2: %+v\nlookupN: %+v",
				i, l, tickStart, c2.State(), cN.State())
		}
	}
}

// linesFromBytes maps raw bytes onto a tiny line space (8 lines over 2
// sets) so any byte stream produces dense conflicts, repeats and
// empty-way races.
func linesFromBytes(data []byte) []mem.Line {
	lines := make([]mem.Line, len(data))
	for i, b := range data {
		lines[i] = mem.Line(b % 8)
	}
	return lines
}

func TestLookup2MatchesLookupNAdversarial(t *testing.T) {
	patterns := map[string][]mem.Line{
		// Cold start: every install picks an empty way; way-0-first priority.
		"cold-fill": {0, 2, 4, 6, 1, 3, 5, 7},
		// One set only: hit, conflict-evict, re-reference the victim.
		"single-set-thrash": {0, 2, 4, 0, 2, 4, 6, 0, 6, 4, 2, 0},
		// Hit then miss alternation: exercises MRU/LRU flips on both ways.
		"mru-flip": {0, 2, 0, 4, 4, 0, 2, 2, 0, 4},
		// An install into a set whose way 0 is valid but way 1 is not — the
		// empty-way branch must win over the LRU branch.
		"empty-way-race": {0, 1, 2, 3, 0, 1, 3, 2, 5, 7, 5, 1},
	}
	ticks := []uint64{0, ^uint64(0) - 6} // cold counter and mid-stream wrap
	for name, lines := range patterns {
		for _, tick := range ticks {
			t.Run(name, func(t *testing.T) { driveEquiv(t, tick, lines) })
		}
	}
}

func TestLookup2MatchesLookupNLongStream(t *testing.T) {
	// A long xorshift-scrambled stream over both sets, so the pair walks
	// through thousands of mixed hit/evict states.
	st := uint64(0x9e3779b97f4a7c15)
	data := make([]byte, 8192)
	for i := range data {
		st ^= st << 13
		st ^= st >> 7
		st ^= st << 17
		data[i] = byte(st)
	}
	driveEquiv(t, 0, linesFromBytes(data))
}

// FuzzLookup2MatchesLookupN lets the fuzzer search for a divergence the
// fixed patterns miss; the corpus seeds replay as regular unit tests.
func FuzzLookup2MatchesLookupN(f *testing.F) {
	f.Add(uint64(0), []byte{0, 2, 4, 0, 2, 4})
	f.Add(^uint64(0)-3, []byte{1, 3, 5, 7, 1, 3, 5, 7})
	f.Add(^uint64(0)-3, []byte{0, 0, 2, 2, 4, 4, 6, 6})
	f.Fuzz(func(t *testing.T, tickStart uint64, data []byte) {
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		driveEquiv(t, tickStart, linesFromBytes(data))
	})
}
