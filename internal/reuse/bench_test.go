package reuse

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BenchmarkSoloPipeline is the core hot path of every methodology:
// deterministic trace generation feeding the three-level hierarchy and an
// exact reuse monitor whose distances accumulate into a histogram — the
// ProfileSolo / Explorer-1 inner loop, run chunk by chunk through one
// reused mem.Batch. One op is a 1 Mi-access window; the batch and the
// monitor's flat table are reused across windows, so the steady state
// allocates nothing (TestPipelineSteadyStateZeroAllocs).
func BenchmarkSoloPipeline(b *testing.B) {
	const window, chunk = 1 << 20, 8192
	prog := workload.GemsFDTD().NewProgram(64)
	hier := cache.NewHierarchy(cache.DefaultHierarchy(8<<20, 64), nil)
	mon := NewExactMonitor()
	hist := &stats.RDHist{}
	batch := make(mem.Batch, 0, chunk)
	step := func() {
		for done := uint64(0); done < window; done += chunk {
			batch.Reset()
			prog.FillBatch(chunk, &batch, nil)
			for i := range batch {
				hier.AccessData(&batch[i])
			}
			mon.ObserveHist(batch, hist, 0)
		}
	}
	step() // warm-up window: sizes the monitor's flat table
	b.ResetTimer()
	start := prog.MemIndex()
	for i := 0; i < b.N; i++ {
		step()
	}
	n := prog.MemIndex() - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
	b.ReportMetric(float64(n)/float64(b.N), "accesses/op")
}

// TestPipelineSteadyStateZeroAllocs is the headline allocation-regression
// gate: the full batched trace→hierarchy→monitor→histogram pipeline, in
// steady state, performs zero heap allocations per access. The profile's
// footprint is small enough that the warm-up pass certainly covers it, so
// the measured windows cannot grow the monitor table.
func TestPipelineSteadyStateZeroAllocs(t *testing.T) {
	prof := &workload.Profile{
		Name: "tiny", MemRatio: 0.4, BranchRatio: 0.1, FPFrac: 0.3,
		LoopDuty: 16, ILP: 4, CodeKiB: 8, Seed: 11,
		Streams: []workload.StreamSpec{
			{Kind: workload.Seq, Weight: 0.4, PaperBytes: 2 << 20, PCs: 8, WriteFrac: 0.4, Burst: 3},
			{Kind: workload.Rand, Weight: 0.3, PaperBytes: 1 << 20, PCs: 8, WriteFrac: 0.2},
			{Kind: workload.Chase, Weight: 0.3, PaperBytes: 1 << 20, PCs: 4},
		},
	}
	const chunk = 4096
	prog := prof.NewProgram(64)
	hier := cache.NewHierarchy(cache.DefaultHierarchy(8<<20, 64), nil)
	mon := NewExactMonitor()
	hist := &stats.RDHist{}
	batch := make(mem.Batch, 0, chunk)
	window := func() {
		batch.Reset()
		prog.FillBatch(chunk, &batch, nil)
		for i := range batch {
			hier.AccessData(&batch[i])
		}
		mon.ObserveHist(batch, hist, 0)
	}
	// Cover the footprint so the monitor table reaches steady-state size.
	for i := 0; i < 300; i++ {
		window()
	}
	if allocs := testing.AllocsPerRun(50, window); allocs != 0 {
		t.Fatalf("steady-state pipeline allocated %.3f times per window (want 0)", allocs)
	}
}
