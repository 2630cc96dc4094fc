package figures

import (
	"testing"

	"repro/internal/runner"
	"repro/internal/warm"
)

// BenchmarkCorunMatrix is the whole short co-run figure, end to end: every
// op builds a fresh runner engine (empty cache, no store) and drives
// CoRunMatrix over the short mix × size grid — solo profiles, warm
// checkpoints, calibrations, forked simulation cells and the StatCC fixed
// point, scheduled as one saturated job list on a GOMAXPROCS-wide pool.
// The fresh engine is deliberate: a warm cache would collapse every op
// after the first into cache hits. The work unit is one matrix cell, so
// ns/access reads as ns per cell.
func BenchmarkCorunMatrix(b *testing.B) {
	mixes, sizes := CoRunMixes(true), CoRunSizes(true)
	cfg := warm.DefaultConfig()
	cfg.Scale = 256
	var n uint64
	for i := 0; i < b.N; i++ {
		n += uint64(len(CoRunMatrix(runner.New(0), mixes, sizes, cfg)))
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
	b.ReportMetric(float64(n)/float64(b.N), "accesses/op")
}
