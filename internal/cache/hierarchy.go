package cache

import (
	"repro/internal/mem"
)

// Level names a position in the hierarchy.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = iota
	LevelLLC
	LevelMem
)

func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "mem"
	}
	return "level?"
}

// Oracle is the statistical-warming hook (the heart of Fig. 3): when an
// access misses in a *lukewarm* level, the active warming strategy may rule
// that a perfectly warmed cache would have hit, in which case the hierarchy
// installs the line and serves the access at that level's latency. SMARTS
// (true functional warming) runs with a nil oracle.
type Oracle interface {
	// OverrideMiss reports whether the miss of access a at level lv should
	// be treated as a hit (i.e. it is a warming miss, not a real one).
	OverrideMiss(a *mem.Access, lv Level) bool
}

// HierarchyConfig describes the paper's three-level hierarchy (Table 1)
// plus memory latency and the optional LLC stride prefetcher (§6.3.2).
type HierarchyConfig struct {
	L1I, L1D, LLC Config
	MemLat        uint32
	Prefetch      bool
	PrefStreams   int // stride streams (8 in the paper)
	PrefDegree    int // lines prefetched per trigger
}

// DefaultHierarchy returns the Table 1 configuration scaled by scale
// (DESIGN.md §2): L1 64 KiB 2-way (floored at 4 KiB so the set structure
// stays meaningful at large scales), LLC 8-way with the given paper-scale
// size.
func DefaultHierarchy(llcPaperBytes uint64, scale uint64) HierarchyConfig {
	if scale == 0 {
		scale = 1
	}
	l1 := uint64(64*1024) / scale
	if l1 < 4*1024 {
		l1 = 4 * 1024
	}
	llc := llcPaperBytes / scale
	if llc < 8*1024 {
		llc = 8 * 1024
	}
	return HierarchyConfig{
		L1I:         Config{Name: "L1I", SizeB: l1, Assoc: 2, MSHRs: 4, HitLat: 1},
		L1D:         Config{Name: "L1D", SizeB: l1, Assoc: 2, MSHRs: 8, HitLat: 3},
		LLC:         Config{Name: "LLC", SizeB: llc, Assoc: 8, MSHRs: 20, HitLat: 30},
		MemLat:      200,
		PrefStreams: 8,
		PrefDegree:  2,
	}
}

// DataResult describes how a data access was served.
type DataResult struct {
	Latency uint32
	Served  Level
	L1      Outcome // outcome at L1D before any override
	// WarmingHit is set when the oracle converted a miss into a hit at
	// Served level; the Analyst counts these as warming misses.
	WarmingHit bool
}

// Hierarchy glues the three levels together and consults the warming
// oracle on lukewarm misses. It is purely functional (no timing); the CPU
// model adds MSHR timing on top.
type Hierarchy struct {
	Cfg    HierarchyConfig
	L1I    *Cache
	L1D    *Cache
	LLC    *Cache
	Oracle Oracle
	Pref   *StridePrefetcher

	// ASLBase offsets every line this core presents to the (possibly
	// shared) LLC. Co-running programs are separate guests whose identical
	// virtual layouts map to disjoint physical memory; NewSharedHierarchy
	// gives each core a distinct base so their lines contend in the shared
	// LLC instead of aliasing. Zero (the solo default) is a no-op.
	ASLBase mem.Line

	// Counters for MPKI and the lukewarm statistics the paper quotes.
	DataAccesses uint64
	LLCMissCount uint64
	WarmingHits  uint64
	PrefIssued   uint64
	PrefUseful   uint64
}

// NewHierarchy builds the hierarchy; oracle may be nil (true warming).
func NewHierarchy(cfg HierarchyConfig, oracle Oracle) *Hierarchy {
	h := &Hierarchy{
		Cfg:    cfg,
		L1I:    New(cfg.L1I),
		L1D:    New(cfg.L1D),
		LLC:    New(cfg.LLC),
		Oracle: oracle,
	}
	if cfg.Prefetch {
		streams := cfg.PrefStreams
		if streams <= 0 {
			streams = 8
		}
		deg := cfg.PrefDegree
		if deg <= 0 {
			deg = 2
		}
		h.Pref = NewStridePrefetcher(streams, deg)
	}
	return h
}

// NewSharedHierarchy builds cores hierarchies with private L1s that all
// filter into ONE shared LLC — the multi-core co-run substrate (§4.2). Each
// returned Hierarchy keeps its own per-core counters (DataAccesses,
// LLCMissCount, ...), so contention statistics stay attributable per app,
// while the LLC's tags, replacement state and aggregate hit/miss counts are
// shared. The per-core stride prefetchers, when enabled, also train only on
// their own core's LLC traffic, as in a private-prefetcher CMP design.
//
// The shared LLC is not thread-safe: callers interleave the cores'
// accesses on one goroutine (multiprog.CoSim drives the interleaving).
func NewSharedHierarchy(cfg HierarchyConfig, cores int) []*Hierarchy {
	if cores < 1 {
		cores = 1
	}
	llc := New(cfg.LLC)
	out := make([]*Hierarchy, cores)
	for i := range out {
		h := &Hierarchy{
			Cfg: cfg,
			L1I: New(cfg.L1I),
			L1D: New(cfg.L1D),
			LLC: llc,
			// Disjoint per-core physical address spaces, far above any
			// line a program generates (code sits at line 2^40).
			ASLBase: mem.Line(uint64(i) << 48),
		}
		if cfg.Prefetch {
			streams := cfg.PrefStreams
			if streams <= 0 {
				streams = 8
			}
			deg := cfg.PrefDegree
			if deg <= 0 {
				deg = 2
			}
			h.Pref = NewStridePrefetcher(streams, deg)
		}
		out[i] = h
	}
	return out
}

// AccessData performs one data access through L1D and the LLC, consulting
// the oracle on misses and triggering the prefetcher on (post-override)
// LLC traffic.
func (h *Hierarchy) AccessData(a *mem.Access) DataResult {
	h.DataAccesses++
	line := a.Line()
	out, _, _ := h.L1D.Lookup(line)
	if out == Hit {
		return DataResult{Latency: h.Cfg.L1D.HitLat, Served: LevelL1, L1: Hit}
	}
	return h.AccessDataMiss(a, line)
}

// AccessDataMiss is the L1-miss tail of AccessData, split out so the
// L1-hit fast path stays under the inliner's budget. It is exported for
// the timing core's inlined data-access fast path, which replays
// AccessData's hit half itself (DataAccesses count plus L1D lookup, in
// that order) and only builds the access record when this tail needs it;
// other callers should use AccessData.
func (h *Hierarchy) AccessDataMiss(a *mem.Access, line mem.Line) DataResult {
	// L1 miss. Does the oracle rule it a warm L1 hit?
	if h.Oracle != nil && h.Oracle.OverrideMiss(a, LevelL1) {
		h.WarmingHits++
		return DataResult{Latency: h.Cfg.L1D.HitLat, Served: LevelL1, L1: Miss, WarmingHit: true}
	}
	llcOut, _, _ := h.LLC.Lookup(line + h.ASLBase)
	if llcOut == Hit {
		h.prefetchObserve(a, false)
		return DataResult{Latency: h.Cfg.L1D.HitLat + h.Cfg.LLC.HitLat, Served: LevelLLC, L1: Miss}
	}
	if h.Oracle != nil && h.Oracle.OverrideMiss(a, LevelLLC) {
		h.WarmingHits++
		h.prefetchObserve(a, false)
		return DataResult{Latency: h.Cfg.L1D.HitLat + h.Cfg.LLC.HitLat, Served: LevelLLC, L1: Miss, WarmingHit: true}
	}
	h.LLCMissCount++
	h.prefetchObserve(a, true)
	return DataResult{Latency: h.Cfg.L1D.HitLat + h.Cfg.LLC.HitLat + h.Cfg.MemLat, Served: LevelMem, L1: Miss}
}

// prefetchObserve feeds the stride prefetcher with LLC-side traffic. The
// prefetcher is trained by misses — for DeLorean those are the *predicted*
// misses, which is exactly the §6.3.2 extension.
func (h *Hierarchy) prefetchObserve(a *mem.Access, miss bool) {
	if h.Pref == nil {
		return
	}
	for _, pl := range h.Pref.Observe(a.PC, a.Line(), miss) {
		// Prefetches to lines already present are nullified (§6.3.2).
		if h.LLC.Probe(pl + h.ASLBase) {
			continue
		}
		h.LLC.Install(pl + h.ASLBase)
		h.PrefIssued++
	}
}

// AccessInstr performs one instruction-fetch access (L1I then LLC).
func (h *Hierarchy) AccessInstr(line mem.Line) uint32 {
	out, _, _ := h.L1I.Lookup(line)
	if out == Hit {
		return h.Cfg.L1I.HitLat
	}
	llcOut, _, _ := h.LLC.Lookup(line + h.ASLBase)
	if llcOut == Hit {
		return h.Cfg.L1I.HitLat + h.Cfg.LLC.HitLat
	}
	h.LLCMissCount++
	return h.Cfg.L1I.HitLat + h.Cfg.LLC.HitLat + h.Cfg.MemLat
}

// WarmData runs an access through the hierarchy for functional warming
// only: tags and replacement state are updated but no oracle is consulted
// and no latency is produced.
func (h *Hierarchy) WarmData(line mem.Line) {
	if out, _, _ := h.L1D.Lookup(line); out == Hit {
		return
	}
	h.LLC.Lookup(line + h.ASLBase)
}

// WarmInstr functionally warms the instruction side.
func (h *Hierarchy) WarmInstr(line mem.Line) {
	if out, _, _ := h.L1I.Lookup(line); out == Hit {
		return
	}
	h.LLC.Lookup(line + h.ASLBase)
}

// Reset invalidates all levels.
func (h *Hierarchy) Reset() {
	h.L1I.Reset()
	h.L1D.Reset()
	h.LLC.Reset()
	h.DataAccesses, h.LLCMissCount, h.WarmingHits = 0, 0, 0
	h.PrefIssued, h.PrefUseful = 0, 0
}

// StridePrefetcher is the paper's LLC stride prefetcher with a fixed number
// of PC-indexed streams (Table: "LLC stride prefetcher with 8 streams").
type StridePrefetcher struct {
	streams []prefStream
	degree  int
	tick    uint64
}

type prefStream struct {
	pc       uint64
	lastLine mem.Line
	stride   int64
	conf     int8
	valid    bool
	lastUse  uint64
}

// NewStridePrefetcher returns a prefetcher with n streams issuing degree
// lines per confirmed-stride trigger.
func NewStridePrefetcher(n, degree int) *StridePrefetcher {
	return &StridePrefetcher{streams: make([]prefStream, n), degree: degree}
}

// Observe trains on one LLC-side access and returns the lines to prefetch
// (empty unless the PC has a confirmed stride and the access missed).
func (p *StridePrefetcher) Observe(pc uint64, line mem.Line, miss bool) []mem.Line {
	p.tick++
	var s *prefStream
	var victim *prefStream
	oldest := ^uint64(0)
	for i := range p.streams {
		st := &p.streams[i]
		if st.valid && st.pc == pc {
			s = st
			break
		}
		if st.lastUse < oldest {
			oldest = st.lastUse
			victim = st
		}
	}
	if s == nil {
		if !miss {
			return nil
		}
		*victim = prefStream{pc: pc, lastLine: line, valid: true, lastUse: p.tick}
		return nil
	}
	s.lastUse = p.tick
	stride := int64(line) - int64(s.lastLine)
	s.lastLine = line
	if stride == 0 {
		return nil
	}
	if stride == s.stride {
		if s.conf < 4 {
			s.conf++
		}
	} else {
		s.stride = stride
		s.conf = 0
		return nil
	}
	// Keep running ahead even on hits: once a stream is confirmed, its own
	// prefetches turn subsequent accesses into hits and the stream must not
	// stall on them.
	if s.conf < 2 {
		return nil
	}
	out := make([]mem.Line, 0, p.degree)
	next := int64(line)
	for i := 0; i < p.degree; i++ {
		next += stride
		if next <= 0 {
			break
		}
		out = append(out, mem.Line(next))
	}
	return out
}
