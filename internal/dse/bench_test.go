package dse

import (
	"testing"

	"repro/internal/core"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// BenchmarkDSEFanout is the §3.3 amortization workload: one Scout +
// Explorer warm-up feeding three Analysts at different LLC sizes, one
// region per op. Every Analyst seeks to the warm point the Scout's tracker
// captured, exactly as RunParallel does, so the gap is replayed once per
// region, not once per size.
func BenchmarkDSEFanout(b *testing.B) {
	prof := workload.CactusADM()
	cfg := warm.DefaultConfig()
	cfg.Scale = 1024
	sizes := []uint64{1 << 20, 8 << 20, 64 << 20}
	scoutCfg := cfg
	scoutCfg.LLCPaperBytes = sizes[0]
	d := core.New(prof, scoutCfg)
	analysts := make([]*vm.Engine, len(sizes))
	cfgs := make([]warm.Config, len(sizes))
	for i, s := range sizes {
		analysts[i] = vm.NewEngine(prof.NewProgram(cfg.Scale))
		cfgs[i] = cfg
		cfgs[i].LLCPaperBytes = s
	}
	accesses := func() uint64 {
		n := d.MemAccesses()
		for _, e := range analysts {
			n += e.Prog.MemIndex()
		}
		return n
	}
	m := 0
	region := func() {
		rd := d.ScoutRegion(m)
		for k := range cfg.ExplorerWindows {
			d.ExploreRegion(k, rd)
		}
		for i, eng := range analysts {
			rd.Analyze(cfgs[i], eng)
		}
		m++
	}
	region() // warm-up region
	b.ResetTimer()
	start := accesses()
	for i := 0; i < b.N; i++ {
		region()
	}
	n := accesses() - start
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/access")
	b.ReportMetric(float64(n)/float64(b.N), "accesses/op")
}
