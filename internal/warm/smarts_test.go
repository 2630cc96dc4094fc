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
func BenchmarkRunSMARTS(b *testing.B) { benchEvals(b, RunSMARTS) }

// BenchmarkRunCoolSim measures CoolSim evaluations the same way. Its host
// time is one long directed-profiling walk per region (the warm-up
// interval), which RunVDP splits across two CPUs when GOMAXPROCS > 1; the
// pool2 case is the host with no CPU to spare.
func BenchmarkRunCoolSim(b *testing.B) { benchEvals(b, RunCoolSim) }

// benchEvals is the harness of the evaluation benchmarks above.
func benchEvals(b *testing.B, run func(*workload.Profile, Config) *Result) {
	cfg := DefaultConfig()
	cfg.Scale = 256
	cfg.Regions = 1
	profs := []*workload.Profile{workload.Mcf(), workload.Omnetpp(), workload.Bwaves()}
	op := func() {
		for _, p := range profs {
			run(p, cfg)
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
