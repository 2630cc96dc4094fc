// Package reuse provides the reuse-distance collection machinery shared by
// every warming strategy: an exact backward-reuse monitor (ground truth and
// Explorer-1's functional directed profiling), a forward-reuse watchpoint
// sampler (RSW and the vicinity distribution), and the key-reuse collector
// of directed statistical warming.
//
// Reuse distance is measured in memory accesses between two accesses to
// the same cacheline, following Eklov & Hagersten; stack-distance
// conversion lives in internal/statstack.
//
// All three collectors sit on the simulation hot path, so their line
// indexes are open-addressing flat tables (mem.FlatMap) rather than Go
// maps; the exact monitor also takes a whole mem.Batch (ObserveHist). The
// map-backed equivalents survive only as reference oracles in the tests.
package reuse

import (
	"repro/internal/mem"
	"repro/internal/stats"
)

// ExactMonitor tracks the last access index of every observed line and
// yields exact backward reuse distances. It is the in-simulator equivalent
// of watching every line at once — affordable only in functional
// simulation (Explorer-1) or tests.
type ExactMonitor struct {
	last mem.FlatMap[mem.Line, uint64]
}

// NewExactMonitor returns an empty monitor.
func NewExactMonitor() *ExactMonitor {
	return &ExactMonitor{}
}

// ObserveLine records an access to line l at memory-access index memIdx
// and returns its backward reuse distance (in memory accesses) and whether
// the line had been seen before.
func (m *ExactMonitor) ObserveLine(l mem.Line, memIdx uint64) (dist uint64, seen bool) {
	p, inserted := m.last.Upsert(l)
	prev := *p
	*p = memIdx
	if inserted {
		return 0, false
	}
	return memIdx - prev, true
}

// ObserveHist observes every access of b in order, accumulating each
// distance straight into hist — the fused monitor→histogram stage of the
// batched pipeline, which skips materializing per-access Samples when the
// caller only wants the distribution. Accesses with InstrIdx < minInstr
// still update the monitor but are not recorded (the calibration loops'
// warm-up gating; pass 0 to record everything).
func (m *ExactMonitor) ObserveHist(b mem.Batch, hist *stats.RDHist, minInstr uint64) {
	for i := range b {
		d, seen := m.ObserveLine(b[i].Line(), b[i].MemIdx)
		if b[i].InstrIdx < minInstr {
			continue
		}
		if seen {
			hist.Add(d)
		} else {
			hist.AddCold(1)
		}
	}
}

// LastAccess returns the most recent access index of line l.
func (m *ExactMonitor) LastAccess(l mem.Line) (uint64, bool) {
	return m.last.Get(l)
}

// Len returns the number of distinct lines observed.
func (m *ExactMonitor) Len() int { return m.last.Len() }

// KeySpec identifies one key cacheline: a unique line referenced in the
// detailed region, together with the memory-access index of its *first*
// in-region access — the anchor the paper's backward key reuse distance is
// measured from.
type KeySpec struct {
	Line     mem.Line
	FirstMem uint64
}

// KeyRecord is the collected key reuse for one key cacheline.
type KeyRecord struct {
	Line     mem.Line
	FirstMem uint64
	// Dist is the backward reuse distance from the detailed region's first
	// access to the line, in memory accesses; valid only if Found.
	Dist  uint64
	Found bool
	// Explorer is the 1-based index of the Explorer that found the reuse
	// (0 when not found — the line was not accessed in any window).
	Explorer int
}

// KeyCollector gathers the last pre-region access to each key cacheline
// during one Explorer window. The Explorer keeps all watchpoints armed for
// the whole window (the paper's central cost observation: many triggers
// are paid per key line, only the last one matters), then Finalize turns
// last-access indexes into key reuse distances.
type KeyCollector struct {
	last mem.FlatMap[mem.Line, uint64]
	keys []KeySpec
}

// NewKeyCollector tracks the given key lines.
func NewKeyCollector(keys []KeySpec) *KeyCollector {
	k := &KeyCollector{keys: keys}
	k.last.Grow(len(keys))
	return k
}

// Observe records a true-positive watchpoint trigger on a key line.
func (k *KeyCollector) Observe(a *mem.Access) {
	k.last.Put(a.Line(), a.MemIdx)
}

// Finalize converts observations into key records. Lines never observed
// are returned in missing, to be handed to the next Explorer.
func (k *KeyCollector) Finalize(explorer int) (found []KeyRecord, missing []KeySpec) {
	for _, ks := range k.keys {
		if idx, ok := k.last.Get(ks.Line); ok {
			found = append(found, KeyRecord{Line: ks.Line, FirstMem: ks.FirstMem,
				Dist: ks.FirstMem - idx, Found: true, Explorer: explorer})
		} else {
			missing = append(missing, ks)
		}
	}
	return found, missing
}

// ForwardSampler implements randomized forward-reuse sampling: a sampled
// access arms a watchpoint on its line; the next access to that line
// completes the sample with the observed distance. RSW uses it for its
// whole profile; DSW uses it (sparsely) for the vicinity distribution.
type ForwardSampler struct {
	pending mem.FlatMap[mem.Line, pendingSample]
	// Hist accumulates completed samples; PerPC optionally accumulates
	// per-load-PC histograms (RSW's statistical model is per-PC, §2.3).
	Hist  *stats.RDHist
	PerPC map[uint64]*stats.RDHist
	// Weight applied to each completed sample (the inverse sampling rate,
	// so sparse profiles represent the full population).
	Weight float64

	Started   uint64
	Completed uint64
}

type pendingSample struct {
	startMem uint64
	pc       uint64
}

// NewForwardSampler returns a sampler; perPC enables per-PC histograms.
func NewForwardSampler(weight float64, perPC bool) *ForwardSampler {
	fs := &ForwardSampler{
		Hist:   &stats.RDHist{},
		Weight: weight,
	}
	if perPC {
		fs.PerPC = make(map[uint64]*stats.RDHist)
	}
	return fs
}

// Start arms a sample at access a (idempotent per line: an already-armed
// line keeps its earlier start, mirroring one watchpoint per address).
func (f *ForwardSampler) Start(a *mem.Access) bool {
	p, inserted := f.pending.Upsert(a.Line())
	if !inserted {
		return false
	}
	*p = pendingSample{startMem: a.MemIdx, pc: a.PC}
	f.Started++
	return true
}

// Complete resolves a watchpoint trigger on line a.Line() if a sample is
// pending there, recording the reuse distance under the *sampled* access's
// PC (the PC whose reuse behaviour the model needs).
func (f *ForwardSampler) Complete(a *mem.Access) bool {
	l := a.Line()
	pp := f.pending.Ptr(l)
	if pp == nil {
		return false
	}
	p := *pp
	f.pending.Delete(l)
	d := a.MemIdx - p.startMem
	f.Hist.AddWeighted(d, f.Weight)
	if f.PerPC != nil {
		h := f.PerPC[p.pc]
		if h == nil {
			h = &stats.RDHist{}
			f.PerPC[p.pc] = h
		}
		h.AddWeighted(d, f.Weight)
	}
	f.Completed++
	return true
}

// PendingLines returns the lines with armed, unresolved samples.
func (f *ForwardSampler) PendingLines() []mem.Line {
	out := make([]mem.Line, 0, f.pending.Len())
	f.pending.Range(func(l mem.Line, _ pendingSample) bool {
		out = append(out, l)
		return true
	})
	return out
}

// AbandonPending drops unresolved samples, optionally recording them as
// "no reuse within horizon" cold entries (RSW does at region boundaries).
// The pending table's storage is retained for the next window.
func (f *ForwardSampler) AbandonPending(recordCold bool) int {
	n := f.pending.Len()
	if recordCold {
		for i := 0; i < n; i++ {
			f.Hist.AddCold(f.Weight)
		}
	}
	f.pending.Reset()
	return n
}
