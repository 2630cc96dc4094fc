package reuse

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workload"
)

// mapMonitor is the original map-backed exact monitor, kept as the
// reference oracle for the flat-table implementation.
type mapMonitor struct {
	last map[mem.Line]uint64
}

func (m *mapMonitor) observe(l mem.Line, memIdx uint64) (uint64, bool) {
	prev, ok := m.last[l]
	m.last[l] = memIdx
	if !ok {
		return 0, false
	}
	return memIdx - prev, true
}

// TestExactMonitorMatchesMapReference drives the flat-table monitor and
// the map reference through the same trace.
func TestExactMonitorMatchesMapReference(t *testing.T) {
	prog := workload.Mcf().NewProgram(64)
	var batch mem.Batch
	prog.FillBatch(300_000, &batch, nil)

	mon := NewExactMonitor()
	ref := &mapMonitor{last: make(map[mem.Line]uint64)}
	for i := range batch {
		gd, gs := mon.ObserveLine(batch[i].Line(), batch[i].MemIdx)
		wd, ws := ref.observe(batch[i].Line(), batch[i].MemIdx)
		if gd != wd || gs != ws {
			t.Fatalf("access %d: flat (%d,%v), map reference (%d,%v)", i, gd, gs, wd, ws)
		}
	}
	if mon.Len() != len(ref.last) {
		t.Fatalf("Len=%d, reference %d", mon.Len(), len(ref.last))
	}
	for l, idx := range ref.last {
		if got, ok := mon.LastAccess(l); !ok || got != idx {
			t.Fatalf("LastAccess(%#x)=(%d,%v), reference %d", l, got, ok, idx)
		}
	}
}

// TestObserveHistMatchesObserveLine pins the fused monitor→histogram
// stage to a per-access ObserveLine loop: fed in uneven chunks, with the
// warm-up gate in the middle of the trace, it must accumulate a
// bit-identical histogram.
func TestObserveHistMatchesObserveLine(t *testing.T) {
	prog := workload.GemsFDTD().NewProgram(64)
	var batch mem.Batch
	prog.FillBatch(200_000, &batch, nil)
	minInstr := batch[len(batch)/3].InstrIdx // exercise the warm-up gate

	ref := NewExactMonitor()
	wantHist := &stats.RDHist{}
	for i := range batch {
		d, s := ref.ObserveLine(batch[i].Line(), batch[i].MemIdx)
		if batch[i].InstrIdx < minInstr {
			continue
		}
		if s {
			wantHist.Add(d)
		} else {
			wantHist.AddCold(1)
		}
	}

	mh := NewExactMonitor()
	gotHist := &stats.RDHist{}
	for lo := 0; lo < len(batch); { // uneven chunks
		hi := lo + 1 + (lo*5)%997
		if hi > len(batch) {
			hi = len(batch)
		}
		mh.ObserveHist(batch[lo:hi], gotHist, minInstr)
		lo = hi
	}
	if *gotHist != *wantHist {
		t.Fatalf("ObserveHist diverged: %v vs %v", gotHist, wantHist)
	}
}

// TestMonitorSteadyStateAllocs: once a monitor's table covers its working
// set, batched observation allocates nothing. The profile's footprint is
// small enough that the warm-up pass certainly touches every line, so the
// measured windows cannot grow the table.
func TestMonitorSteadyStateAllocs(t *testing.T) {
	prof := &workload.Profile{
		Name: "tiny", MemRatio: 0.4, BranchRatio: 0.1, FPFrac: 0.3,
		LoopDuty: 16, ILP: 4, CodeKiB: 8, Seed: 9,
		Streams: []workload.StreamSpec{
			{Kind: workload.Seq, Weight: 0.5, PaperBytes: 1 << 20, PCs: 8, WriteFrac: 0.3, Burst: 2},
			{Kind: workload.Rand, Weight: 0.5, PaperBytes: 1 << 20, PCs: 8, WriteFrac: 0.3},
		},
	}
	prog := prof.NewProgram(64)
	mon := NewExactMonitor()
	hist := &stats.RDHist{}
	batch := make(mem.Batch, 0, 4096)
	// Warm-up pass sizes the table over the full footprint.
	for i := 0; i < 200; i++ {
		batch.Reset()
		prog.FillBatch(4096, &batch, nil)
		mon.ObserveHist(batch, hist, 0)
	}
	allocs := testing.AllocsPerRun(20, func() {
		batch.Reset()
		prog.FillBatch(4096, &batch, nil)
		mon.ObserveHist(batch, hist, 0)
	})
	if allocs != 0 {
		t.Fatalf("steady-state monitor pipeline allocated %.2f times per window", allocs)
	}
}
