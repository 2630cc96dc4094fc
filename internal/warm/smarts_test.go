package warm

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// BenchmarkRunSMARTS measures SMARTS evaluations at the sampling
// benchmark's configuration (Scale 256, one region) over mcf, omnetpp and
// bwaves, in ns per evaluated instruction. One op evaluates the three
// benchmarks in turn: serial runs one op at a time, pool2 two ops at once,
// the saturated two-worker pool of a runner or labd.
func BenchmarkRunSMARTS(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Scale = 256
	cfg.Regions = 1
	profs := []*workload.Profile{workload.Mcf(), workload.Omnetpp(), workload.Bwaves()}
	op := func() {
		for _, p := range profs {
			RunSMARTS(p, cfg)
		}
	}
	instrs := float64(len(profs)) * float64(cfg.TotalInstr())
	for _, bc := range []struct {
		name string
		ops  int
	}{{"serial", 1}, {"pool2", 2}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for range bc.ops {
					wg.Add(1)
					go func() {
						defer wg.Done()
						op()
					}()
				}
				wg.Wait()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.ops)/instrs, "ns/instr")
		})
	}
}
