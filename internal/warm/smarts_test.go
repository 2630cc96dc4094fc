package warm

import (
	"sync"
	"testing"

	"repro/internal/workload"
)

// BenchmarkRunSMARTS measures SMARTS evaluations at the sampling
// benchmark's configuration (Scale 256, one region), per benchmark (mcf,
// omnetpp, bwaves), in ns per evaluated instruction: serial runs one
// evaluation at a time, pool2 two at once, the saturated two-worker pool
// of a runner or labd.
func BenchmarkRunSMARTS(b *testing.B) { benchEvals(b, RunSMARTS) }

// BenchmarkRunCoolSim measures CoolSim evaluations the same way. Its host
// time is one long directed-profiling walk per region (the warm-up
// interval), which skips the spans no watchpoint observes and which RunVDP
// splits across two CPUs when GOMAXPROCS > 1; the pool2 case is the host
// with no CPU to spare. The profiles differ in how much of the walk is
// armed: bwaves' sampled reuses are short, so its walk mostly skips, and
// mcf's and omnetpp's are long.
func BenchmarkRunCoolSim(b *testing.B) { benchEvals(b, RunCoolSim) }

// benchEvals is the harness of the evaluation benchmarks above.
func benchEvals(b *testing.B, run func(*workload.Profile, Config) *Result) {
	cfg := DefaultConfig()
	cfg.Scale = 256
	cfg.Regions = 1
	instrs := float64(cfg.TotalInstr())
	for _, p := range []*workload.Profile{workload.Mcf(), workload.Omnetpp(), workload.Bwaves()} {
		for _, bc := range []struct {
			name string
			ops  int
		}{{"serial", 1}, {"pool2", 2}} {
			b.Run(p.Name+"/"+bc.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for range bc.ops {
						wg.Add(1)
						go func() {
							defer wg.Done()
							run(p, cfg)
						}()
					}
					wg.Wait()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bc.ops)/instrs, "ns/instr")
			})
		}
	}
}
