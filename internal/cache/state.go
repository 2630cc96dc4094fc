package cache

import (
	"fmt"

	"repro/internal/mem"
)

// This file is the cache layer's checkpoint surface: exported, serializable
// mirror structs for every piece of mutable state in a Cache, a
// StridePrefetcher and a Hierarchy, with State/SetState pairs that
// deep-copy in both directions. The mirrors carry *state*, not
// configuration — geometry (sets, associativity, prefetcher shape) comes
// from the receiver's own Config, and SetState rejects a state whose shape
// disagrees with it, so a checkpoint can never be silently restored into a
// differently-sized cache.

// CacheState is the serializable state of one Cache: the tag/recency
// arrays (parallel, one entry per way; age 0 marks an invalid way), the
// recency tick and the access counters.
type CacheState struct {
	Tags      []uint64 `json:"tags"`
	Ages      []uint64 `json:"ages"`
	Tick      uint64   `json:"tick"`
	NHits     uint64   `json:"hits"`
	NMisses   uint64   `json:"misses"`
	NMSHRHits uint64   `json:"mshr_hits"`
}

// State captures the cache's mutable state. The result shares no storage
// with the cache. The wire form has always been parallel tag/age arrays,
// so the in-memory move to the same structure-of-arrays layout left the
// encoding — and every previously persisted checkpoint — untouched (the
// golden fixture in state_test.go pins that).
func (c *Cache) State() CacheState {
	s := CacheState{
		Tags:      make([]uint64, len(c.tags)),
		Ages:      make([]uint64, len(c.ages)),
		Tick:      c.tick,
		NHits:     c.NHits,
		NMisses:   c.NMisses,
		NMSHRHits: c.NMSHRHits,
	}
	copy(s.Tags, c.tags)
	copy(s.Ages, c.ages)
	return s
}

// SetState restores state captured from a cache with the same geometry.
// The cache's subsequent behaviour is bit-identical to the captured one's;
// the state value is copied, never aliased.
func (c *Cache) SetState(s CacheState) error {
	if len(s.Tags) != len(c.tags) || len(s.Ages) != len(c.ages) {
		return fmt.Errorf("cache %s: state has %d/%d ways, cache has %d",
			c.cfg.Name, len(s.Tags), len(s.Ages), len(c.tags))
	}
	copy(c.tags, s.Tags)
	copy(c.ages, s.Ages)
	c.tick = s.Tick
	c.NHits, c.NMisses, c.NMSHRHits = s.NHits, s.NMisses, s.NMSHRHits
	return nil
}

// PrefStreamState is the serializable state of one prefetcher stream.
type PrefStreamState struct {
	PC       uint64 `json:"pc"`
	LastLine uint64 `json:"last_line"`
	Stride   int64  `json:"stride"`
	Conf     int8   `json:"conf"`
	Valid    bool   `json:"valid"`
	LastUse  uint64 `json:"last_use"`
}

// PrefState is the serializable state of a StridePrefetcher.
type PrefState struct {
	Streams []PrefStreamState `json:"streams"`
	Tick    uint64            `json:"tick"`
}

// State captures the prefetcher's training state.
func (p *StridePrefetcher) State() PrefState {
	s := PrefState{Streams: make([]PrefStreamState, len(p.streams)), Tick: p.tick}
	for i, st := range p.streams {
		s.Streams[i] = PrefStreamState{PC: st.pc, LastLine: uint64(st.lastLine),
			Stride: st.stride, Conf: st.conf, Valid: st.valid, LastUse: st.lastUse}
	}
	return s
}

// SetState restores prefetcher state captured from a same-shaped
// prefetcher.
func (p *StridePrefetcher) SetState(s PrefState) error {
	if len(s.Streams) != len(p.streams) {
		return fmt.Errorf("prefetcher: state has %d streams, prefetcher has %d",
			len(s.Streams), len(p.streams))
	}
	for i, st := range s.Streams {
		p.streams[i] = prefStream{pc: st.PC, lastLine: mem.Line(st.LastLine),
			stride: st.Stride, conf: st.Conf, valid: st.Valid, lastUse: st.LastUse}
	}
	p.tick = s.Tick
	return nil
}

// HierarchyState is the serializable state of one Hierarchy. LLC is nil
// when the hierarchy shares its LLC with siblings (NewSharedHierarchy):
// the checkpoint then stores the shared LLC's state exactly once at the
// container level instead of N aliased copies — restoring N copies into
// one shared cache would be ill-defined, and the nil slot makes the
// sharing explicit in the encoding.
type HierarchyState struct {
	L1I CacheState  `json:"l1i"`
	L1D CacheState  `json:"l1d"`
	LLC *CacheState `json:"llc,omitempty"`
	// Pref is present exactly when the hierarchy has a prefetcher.
	Pref    *PrefState `json:"pref,omitempty"`
	ASLBase uint64     `json:"asl_base"`

	DataAccesses uint64 `json:"data_accesses"`
	LLCMissCount uint64 `json:"llc_miss_count"`
	WarmingHits  uint64 `json:"warming_hits"`
	PrefIssued   uint64 `json:"pref_issued"`
	PrefUseful   uint64 `json:"pref_useful"`
}

// State captures the hierarchy's state. includeLLC selects whether the LLC
// is embedded (solo hierarchy) or omitted (shared LLC stored once by the
// caller).
func (h *Hierarchy) State(includeLLC bool) HierarchyState {
	s := HierarchyState{
		L1I:          h.L1I.State(),
		L1D:          h.L1D.State(),
		ASLBase:      uint64(h.ASLBase),
		DataAccesses: h.DataAccesses,
		LLCMissCount: h.LLCMissCount,
		WarmingHits:  h.WarmingHits,
		PrefIssued:   h.PrefIssued,
		PrefUseful:   h.PrefUseful,
	}
	if includeLLC {
		llc := h.LLC.State()
		s.LLC = &llc
	}
	if h.Pref != nil {
		pref := h.Pref.State()
		s.Pref = &pref
	}
	return s
}

// SetState restores hierarchy state captured from a hierarchy with the
// same configuration. When s.LLC is nil the receiver's LLC is left
// untouched — the caller restores the shared LLC separately, once.
func (h *Hierarchy) SetState(s HierarchyState) error {
	if err := h.L1I.SetState(s.L1I); err != nil {
		return err
	}
	if err := h.L1D.SetState(s.L1D); err != nil {
		return err
	}
	if s.LLC != nil {
		if err := h.LLC.SetState(*s.LLC); err != nil {
			return err
		}
	}
	switch {
	case s.Pref != nil && h.Pref == nil:
		return fmt.Errorf("hierarchy: state has prefetcher state but hierarchy has no prefetcher")
	case s.Pref == nil && h.Pref != nil:
		return fmt.Errorf("hierarchy: hierarchy has a prefetcher but state has no prefetcher state")
	case s.Pref != nil:
		if err := h.Pref.SetState(*s.Pref); err != nil {
			return err
		}
	}
	h.ASLBase = mem.Line(s.ASLBase)
	h.DataAccesses = s.DataAccesses
	h.LLCMissCount = s.LLCMissCount
	h.WarmingHits = s.WarmingHits
	h.PrefIssued = s.PrefIssued
	h.PrefUseful = s.PrefUseful
	return nil
}
