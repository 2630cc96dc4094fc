package vm

import (
	"math/bits"
	"slices"

	"repro/internal/mem"
	"repro/internal/workload"
)

// WatchedPage is one watched page: its index and the 64-bit bitmap of its
// watched lines.
type WatchedPage struct {
	Page uint64 `json:"page"`
	Bits uint64 `json:"bits"`
}

// WatchpointsState is the serializable state of a Watchpoints set: the
// watched pages sorted by page index, which makes the encoding canonical —
// two sets with the same watched lines encode identically regardless of
// the order the watchpoints were armed in.
type WatchpointsState []WatchedPage

// State captures the watchpoint set.
func (w *Watchpoints) State() WatchpointsState {
	s := make(WatchpointsState, 0, w.pages.Len())
	w.pages.Range(func(p mem.Page, bm uint64) bool {
		s = append(s, WatchedPage{Page: uint64(p), Bits: bm})
		return true
	})
	slices.SortFunc(s, func(a, b WatchedPage) int {
		switch {
		case a.Page < b.Page:
			return -1
		case a.Page > b.Page:
			return 1
		}
		return 0
	})
	return s
}

// SetState replaces the set's contents with the captured state. The line
// count is recomputed from the bitmaps, so a hand-built state needs no
// separate count field to stay consistent; entries for one page are ORed
// together, and a zero bitmap watches nothing.
func (w *Watchpoints) SetState(s WatchpointsState) {
	w.Clear()
	for _, wp := range s {
		if wp.Bits == 0 {
			continue
		}
		p, added := w.pages.Upsert(mem.Page(wp.Page))
		if added {
			w.addPage(mem.Page(wp.Page))
		}
		w.n += bits.OnesCount64(wp.Bits &^ *p)
		*p |= wp.Bits
	}
}

// SeekTo is virtualized fast-forwarding (VFF): it restores the program to
// a captured position and charges the skipped span to the VFF ledger. The
// position skips the host-side replay work, not simulated execution, so
// every ledger-derived figure is what replaying the gap would give. It
// panics if the position is in the past: passes only ever travel forward;
// going "back in time" means a different pass.
func (e *Engine) SeekTo(pos workload.Position) error {
	cur := e.Prog.InstrIndex()
	if cur > pos.InstrIdx {
		panic("vm: SeekTo target is in the past")
	}
	if err := e.Prog.Seek(pos); err != nil {
		return err
	}
	e.charge(KindVFF, float64(pos.InstrIdx-cur))
	return nil
}
