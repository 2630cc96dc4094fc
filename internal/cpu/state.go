package cpu

import (
	"fmt"
	"slices"

	"repro/internal/mem"
)

// This file is the timing core's checkpoint surface. Like the cache
// layer's, it mirrors *mutable state only*: configuration-derived fields
// (mshrs, pruneLen, the scratch buffers) are rebuilt by the constructor,
// and SetState validates shape against the receiver's configuration.
//
// Two internals are deliberately canonicalized rather than copied raw:
//
//   - The outstanding-miss table is flattened to (line, completion) pairs
//     sorted by line. The flat table's physical layout depends on
//     insertion/deletion history, but every observable behaviour (Get,
//     Delete, the prune's collect-and-recompute) is a function of its
//     *contents* — so a canonical encoding both round-trips exactly and
//     makes State() snapshots of a forked and a straight-through core
//     directly comparable.
//   - outMin, the prune guard, is not serialized at all. It is a lower
//     bound, not state: any valid lower bound produces the identical
//     sequence of effective prunes (a prune it fails to skip removes
//     nothing), so SetState recomputes it exactly from the restored table.
type CoreState struct {
	Cycle       uint64   `json:"cycle"`
	WidthCount  int      `json:"width_count"`
	FetchStall  uint64   `json:"fetch_stall"`
	RobSlot     int      `json:"rob_slot"`
	MaxComplete uint64   `json:"max_complete"`
	Completion  []uint64 `json:"completion"`
	// Outstanding holds the in-flight misses sorted by line.
	Outstanding []OutstandingMiss `json:"outstanding"`
	// MSHRFree holds the occupied MSHR completion times in ascending order.
	MSHRFree []uint64        `json:"mshr_free"`
	BP       BranchPredState `json:"bp"`
}

// OutstandingMiss is one in-flight miss: the line and its completion cycle.
type OutstandingMiss struct {
	Line     uint64 `json:"line"`
	Complete uint64 `json:"complete"`
}

// BranchPredState is the serializable state of a BranchPred: the counter
// tables, the BTB, the global history register and the statistics.
type BranchPredState struct {
	Local       []uint8  `json:"local"`
	Global      []uint8  `json:"global"`
	Choice      []uint8  `json:"choice"`
	BTB         []uint64 `json:"btb"`
	GHR         uint64   `json:"ghr"`
	Lookups     uint64   `json:"lookups"`
	Mispredicts uint64   `json:"mispredicts"`
}

// State captures the predictor's state; the result shares no storage with
// the predictor.
func (p *BranchPred) State() BranchPredState {
	return BranchPredState{
		Local:       append([]uint8(nil), p.local...),
		Global:      append([]uint8(nil), p.global...),
		Choice:      append([]uint8(nil), p.choice...),
		BTB:         append([]uint64(nil), p.btb...),
		GHR:         p.ghr,
		Lookups:     p.Lookups,
		Mispredicts: p.Mispredicts,
	}
}

// SetState restores predictor state captured from a same-shaped predictor.
func (p *BranchPred) SetState(s BranchPredState) error {
	if len(s.Local) != len(p.local) || len(s.Global) != len(p.global) ||
		len(s.Choice) != len(p.choice) || len(s.BTB) != len(p.btb) {
		return fmt.Errorf("branch predictor: state tables %d/%d/%d/%d do not match predictor %d/%d/%d/%d",
			len(s.Local), len(s.Global), len(s.Choice), len(s.BTB),
			len(p.local), len(p.global), len(p.choice), len(p.btb))
	}
	copy(p.local, s.Local)
	copy(p.global, s.Global)
	copy(p.choice, s.Choice)
	copy(p.btb, s.BTB)
	p.ghr = s.GHR
	p.Lookups = s.Lookups
	p.Mispredicts = s.Mispredicts
	return nil
}

// State captures the core's mutable timing state (scheduling clocks, ROB
// completion ring, in-flight misses, MSHR occupancy, branch predictor).
// The hierarchy is NOT included — it may be shared between cores, so the
// checkpoint container owns it (cache.HierarchyState).
func (c *Core) State() CoreState {
	s := CoreState{
		Cycle:       c.cycle,
		WidthCount:  c.widthCount,
		FetchStall:  c.fetchStall,
		RobSlot:     c.robSlot,
		MaxComplete: c.maxComplete,
		Completion:  append([]uint64(nil), c.completion...),
		MSHRFree:    make([]uint64, 0, c.mshrFree.n),
		BP:          c.BP.State(),
	}
	for i := 0; i < c.mshrFree.n; i++ {
		j := c.mshrFree.head + i
		if j >= len(c.mshrFree.buf) {
			j -= len(c.mshrFree.buf)
		}
		s.MSHRFree = append(s.MSHRFree, c.mshrFree.buf[j])
	}
	c.outstanding.Range(func(l mem.Line, t uint64) bool {
		s.Outstanding = append(s.Outstanding, OutstandingMiss{Line: uint64(l), Complete: t})
		return true
	})
	slices.SortFunc(s.Outstanding, func(a, b OutstandingMiss) int {
		switch {
		case a.Line < b.Line:
			return -1
		case a.Line > b.Line:
			return 1
		}
		return 0
	})
	return s
}

// SetState restores core state captured from a core with the same
// configuration. The state value is deep-copied, never aliased, so one
// checkpoint can seed any number of forked cores.
func (c *Core) SetState(s CoreState) error {
	if len(s.Completion) != len(c.completion) {
		return fmt.Errorf("core: state ROB size %d does not match core %d", len(s.Completion), len(c.completion))
	}
	if len(s.MSHRFree) > c.mshrs {
		return fmt.Errorf("core: state has %d occupied MSHRs, core has %d", len(s.MSHRFree), c.mshrs)
	}
	if s.RobSlot < 0 || s.RobSlot >= len(c.completion) {
		return fmt.Errorf("core: state ROB slot %d outside the core's %d", s.RobSlot, len(c.completion))
	}
	for i := 1; i < len(s.MSHRFree); i++ {
		if s.MSHRFree[i] < s.MSHRFree[i-1] {
			return fmt.Errorf("core: state MSHR completion %d out of order", i)
		}
	}
	// The in-flight table is bounded by the MSHR geometry
	// (inFlightPerMSHR) and kept in the canonical order State writes:
	// strictly ascending lines, which also refuses a line listed twice.
	if limit := inFlightPerMSHR * c.mshrs; len(s.Outstanding) > limit {
		return fmt.Errorf("core: state has %d in-flight misses, core holds at most %d", len(s.Outstanding), limit)
	}
	for i := 1; i < len(s.Outstanding); i++ {
		if s.Outstanding[i].Line <= s.Outstanding[i-1].Line {
			return fmt.Errorf("core: state in-flight miss %d (line %#x) out of order", i, s.Outstanding[i].Line)
		}
	}
	if err := c.BP.SetState(s.BP); err != nil {
		return err
	}
	c.cycle = s.Cycle
	c.widthCount = s.WidthCount
	c.fetchStall = s.FetchStall
	c.robSlot = s.RobSlot
	c.maxComplete = s.MaxComplete
	copy(c.completion, s.Completion)
	c.mshrFree.init(c.mshrs)
	for _, t := range s.MSHRFree {
		c.mshrFree.push(t)
	}
	c.outstanding.Reset()
	c.outMin = ^uint64(0)
	for _, o := range s.Outstanding {
		c.outstanding.Put(mem.Line(o.Line), o.Complete)
		if o.Complete < c.outMin {
			c.outMin = o.Complete
		}
	}
	return nil
}
