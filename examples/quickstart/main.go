// Quickstart: evaluate one benchmark with DeLorean and compare against the
// SMARTS functional-warming reference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/warm"
	"repro/internal/workload"
)

func main() {
	// The experimental setup of the paper's §5 at 1/64 geometric scale:
	// 10 detailed regions of 10k instructions, 1B(-equivalent) apart,
	// 8 MiB(-equivalent) LLC.
	cfg := warm.DefaultConfig()
	cfg.Regions = 5 // keep the example fast

	prof := workload.ByName("zeusmp")

	// DeLorean: Scout -> Explorer-1..4 -> Analyst, per region.
	dlr := core.Run(prof, cfg)

	// SMARTS reference: functional warming between regions.
	ref := warm.RunSMARTS(prof, cfg)

	fmt.Printf("benchmark:        %s\n", prof.Name)
	fmt.Printf("SMARTS CPI:       %.3f (reference)\n", ref.CPI())
	fmt.Printf("DeLorean CPI:     %.3f (error %.1f%%)\n", dlr.CPI(),
		sampling.CPIError(ref.CPI(), dlr.CPI())*100)
	fmt.Printf("avg Explorers:    %.2f of 4\n", dlr.AvgExplorers)
	fmt.Printf("keys/region:      %.0f\n",
		dlr.Counters.Get("fix/keys_total")/float64(cfg.Regions))

	b := sampling.BenchSpeeds(cfg, sampling.BenchResult{
		Bench: prof.Name, SMARTS: ref, DeLorean: dlr})
	fmt.Printf("simulated speed:  SMARTS %.1f MIPS, DeLorean %.0f MIPS (%.0fx)\n",
		b.SMARTS, b.DeLorean, b.DeLorean/b.SMARTS)
}
