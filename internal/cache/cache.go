// Package cache implements the memory-hierarchy substrate: set-associative
// caches with true-LRU replacement, miss status holding
// registers (MSHRs), a three-level hierarchy matching the paper's Table 1,
// and an LLC stride prefetcher for the Fig. 12 experiment.
package cache

import (
	"fmt"

	"repro/internal/mem"
)

// Config describes one cache level.
type Config struct {
	Name   string
	SizeB  uint64 // total capacity in bytes
	Assoc  int
	MSHRs  int
	HitLat uint32 // cycles
}

// Lines returns the capacity in cachelines.
func (c Config) Lines() uint64 { return c.SizeB / mem.LineSize }

// Sets returns the number of sets.
func (c Config) Sets() uint64 {
	a := uint64(c.Assoc)
	if a == 0 {
		a = 1
	}
	s := c.Lines() / a
	if s == 0 {
		s = 1
	}
	return s
}

func (c Config) String() string {
	return fmt.Sprintf("%s %dKiB %d-way", c.Name, c.SizeB/1024, c.Assoc)
}

// Outcome classifies a cache access.
type Outcome uint8

// Access outcomes.
const (
	Hit Outcome = iota
	Miss
	// MSHRHit means the line missed but an earlier miss to the same line is
	// still outstanding; the request coalesces onto the existing MSHR
	// ("delayed hit" in the paper's terminology).
	MSHRHit
)

func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Miss:
		return "miss"
	case MSHRHit:
		return "mshr-hit"
	}
	return "outcome?"
}

// Cache is one set-associative cache level. The zero value is unusable;
// call New. Not safe for concurrent use.
//
// The way metadata is structure-of-arrays: tags and ages live in parallel
// slices indexed set*assoc+way, not in an array of 16-byte {tag, age}
// records. A set's tags are then contiguous — an 8-way LLC set's tag scan
// reads one 64-byte host line instead of striding across two — and the
// probe-only paths (Probe, WayIndexOf, the timing core's prefetch hint)
// touch tags alone. A/B measured against the packed layout on the full
// scenario suite, SoA won at both levels; the packed record's claimed
// advantage (one contiguous run per 2-way probe) did not survive
// measurement — see DESIGN.md §12 for both sets of numbers.
// age == 0 doubles as the invalid marker: the tick counter pre-increments,
// so a resident line always has age >= 1.
type Cache struct {
	cfg     Config
	sets    uint64
	setMask uint64 // sets-1 when sets is a power of two, else 0
	assoc   int
	tags    []uint64 // sets*assoc entries
	ages    []uint64 // sets*assoc entries; 0 = invalid
	tick    uint64

	// Statistics.
	NHits, NMisses, NMSHRHits uint64
}

// New builds a cache from cfg. Capacity, associativity and line size must
// be consistent (sets >= 1); see Config.Sets.
func New(cfg Config) *Cache {
	sets := cfg.Sets()
	assoc := cfg.Assoc
	if assoc <= 0 {
		assoc = 1
	}
	c := &Cache{
		cfg:   cfg,
		sets:  sets,
		assoc: assoc,
		tags:  make([]uint64, sets*uint64(assoc)),
		ages:  make([]uint64, sets*uint64(assoc)),
	}
	if sets&(sets-1) == 0 {
		c.setMask = sets - 1
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// setOf maps a line to its set index. Every Table 1 geometry has a
// power-of-two set count, so the common path is a mask, not a division.
func (c *Cache) setOf(l mem.Line) uint64 {
	if c.setMask != 0 {
		return uint64(l) & c.setMask
	}
	return uint64(l) % c.sets
}

// Lookup accesses the cache, updating replacement state and statistics.
// On a miss the line is installed (write-allocate) and the victim line is
// returned with evicted=true if a valid line was displaced.
func (c *Cache) Lookup(l mem.Line) (out Outcome, victim mem.Line, evicted bool) {
	c.tick++
	if c.assoc == 2 {
		return c.lookup2(l)
	}
	return c.lookupN(l)
}

// lookup2 is the two-way specialization: the L1s are 2-way (Table 1) and
// sit in front of every access, so this path runs more than any other loop
// in the simulator. Decision structure mirrors lookupN exactly (same
// outcome, victim way and replacement update for every state), pinned by
// the assoc-2 equivalence property/fuzz tests.
func (c *Cache) lookup2(l mem.Line) (out Outcome, victim mem.Line, evicted bool) {
	base := c.setOf(l) * 2
	t := c.tags[base : base+2 : base+2]
	a := c.ages[base : base+2 : base+2]
	if t[0] == uint64(l) && a[0] != 0 {
		a[0] = c.tick
		c.NHits++
		return Hit, 0, false
	}
	if t[1] == uint64(l) && a[1] != 0 {
		a[1] = c.tick
		c.NHits++
		return Hit, 0, false
	}
	c.NMisses++
	w := 0
	switch {
	case a[0] == 0:
	case a[1] == 0:
		w = 1
	default:
		if a[1] < a[0] {
			w = 1
		}
		victim, evicted = mem.Line(t[w]), true
	}
	t[w] = uint64(l)
	a[w] = c.tick
	return Miss, victim, evicted
}

// lookupN is the general N-way scan. One pass over the set's contiguous
// tag run finds the hit way; ages gate validity and carry the LRU order.
func (c *Cache) lookupN(l mem.Line) (out Outcome, victim mem.Line, evicted bool) {
	assoc := uint64(c.assoc)
	base := c.setOf(l) * assoc
	t := c.tags[base : base+assoc : base+assoc]
	a := c.ages[base : base+assoc : base+assoc]
	var emptyWay, lruWay int = -1, 0
	var lruAge uint64 = ^uint64(0)
	for w := range a {
		age := a[w]
		if age == 0 {
			if emptyWay < 0 {
				emptyWay = w
			}
			continue
		}
		if t[w] == uint64(l) {
			a[w] = c.tick
			c.NHits++
			return Hit, 0, false
		}
		if age < lruAge {
			lruAge = age
			lruWay = w
		}
	}
	c.NMisses++
	w := emptyWay
	if w < 0 {
		w = lruWay
		victim, evicted = mem.Line(t[w]), true
	}
	t[w] = uint64(l)
	a[w] = c.tick
	return Miss, victim, evicted
}

// WayIndexOf returns the index into the cache's way arrays currently
// holding line l, or -1 when the line is not resident. Like Probe it
// changes no state (no tick, no recency, no counters); it exists so a
// caller that can prove the next Lookup of l must hit — the timing core's
// fetch-line memo — can pair it with Touch and skip the set search.
func (c *Cache) WayIndexOf(l mem.Line) int {
	assoc := uint64(c.assoc)
	base := c.setOf(l) * assoc
	t := c.tags[base : base+assoc : base+assoc]
	a := c.ages[base : base+assoc : base+assoc]
	for w := range t {
		if t[w] == uint64(l) && a[w] != 0 {
			return int(base) + w
		}
	}
	return -1
}

// Touch replays the state effects of a hitting Lookup on the way at index
// w (as returned by WayIndexOf): the tick advances, the way becomes most
// recently used and the hit is counted — bit-identical to Lookup finding
// the line, without the set search. The caller must guarantee the way
// still holds the line it resolved; the timing core's fetch-line memo can,
// because nothing but its own fetches touches the private L1I between two
// consecutive instructions.
func (c *Cache) Touch(w int) {
	c.tick++
	c.ages[w] = c.tick
	c.NHits++
}

// TouchN replays k hitting Lookups of the way at index w in one step:
// the tick advances by k, the way's age becomes the last of those ticks
// and k hits are counted — bit-identical to k consecutive Touch calls. The
// functional-warming pass collapses each fetch-line run onto it (see
// vm.Engine.RunFuncWarm).
func (c *Cache) TouchN(w int, k uint64) {
	c.tick += k
	c.ages[w] = c.tick
	c.NHits += k
}

// Probe reports whether the line is present without touching replacement
// state or statistics.
func (c *Cache) Probe(l mem.Line) bool {
	assoc := uint64(c.assoc)
	base := c.setOf(l) * assoc
	t := c.tags[base : base+assoc : base+assoc]
	a := c.ages[base : base+assoc : base+assoc]
	for w := range t {
		if t[w] == uint64(l) && a[w] != 0 {
			return true
		}
	}
	return false
}

// SetFull reports whether the set that line l maps to has no invalid ways.
// The Fig. 3 classifier uses this: a lukewarm miss into a full set is a
// certain conflict miss.
func (c *Cache) SetFull(l mem.Line) bool {
	assoc := uint64(c.assoc)
	base := c.setOf(l) * assoc
	a := c.ages[base : base+assoc : base+assoc]
	for w := range a {
		if a[w] == 0 {
			return false
		}
	}
	return true
}

// Install forces a line into the cache without counting statistics (used
// when the statistical classifier decides a "warming miss" is really a hit
// and the line must appear present from then on).
func (c *Cache) Install(l mem.Line) {
	assoc := uint64(c.assoc)
	base := c.setOf(l) * assoc
	t := c.tags[base : base+assoc : base+assoc]
	a := c.ages[base : base+assoc : base+assoc]
	c.tick++
	var wIdx int = -1
	var lruAge uint64 = ^uint64(0)
	for w := range a {
		if t[w] == uint64(l) && a[w] != 0 {
			a[w] = c.tick
			return
		}
		if a[w] == 0 {
			wIdx = w
			break
		}
		if a[w] < lruAge {
			lruAge = a[w]
			wIdx = w
		}
	}
	t[wIdx] = uint64(l)
	a[wIdx] = c.tick
}

// Occupancy returns the number of valid lines (for invariant tests).
func (c *Cache) Occupancy() uint64 {
	var n uint64
	for i := range c.ages {
		if c.ages[i] != 0 {
			n++
		}
	}
	return n
}

// Reset invalidates the entire cache and clears statistics.
func (c *Cache) Reset() {
	for i := range c.ages {
		c.ages[i] = 0
	}
	c.tick = 0
	c.NHits, c.NMisses, c.NMSHRHits = 0, 0, 0
}

// MissRatio returns misses / (hits + misses + mshr hits).
func (c *Cache) MissRatio() float64 {
	tot := c.NHits + c.NMisses + c.NMSHRHits
	if tot == 0 {
		return 0
	}
	return float64(c.NMisses) / float64(tot)
}
