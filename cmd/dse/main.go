// Command dse runs a design-space exploration: one benchmark evaluated
// across many LLC sizes from a single Scout/Explorer warm-up feeding
// parallel Analysts (Fig. 14, §6.4.2). Its MPKI column is the benchmark's
// working-set curve (Fig. 13); -ref adds a SMARTS reference per size.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/dse"
	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/warm"
	"repro/internal/workload"
)

func main() {
	var (
		bench    = flag.String("bench", "cactusADM", "benchmark name")
		regions  = flag.Int("regions", 10, "number of detailed regions")
		short    = flag.Bool("short", false, "fewer LLC sizes")
		withRef  = flag.Bool("ref", false, "also run the SMARTS reference per size (slow)")
		workers  = flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
		storeDir = flag.String("store", "", "artifact store directory (persists results across runs)")
		storeMax = flag.Int64("store-max-mb", 0, "artifact store size budget in MiB (0 = unbounded)")
	)
	flag.Parse()

	prof := workload.ByName(*bench)
	if prof == nil {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	cfg := warm.DefaultConfig()
	cfg.Regions = *regions

	eng, _, err := lab.NewEngine(*workers, *storeDir, *storeMax<<20)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Without -ref the one-job matrix leaves the pool idle, so the DSE
	// spec's Analyst fan-out gets the whole worker budget (resolved
	// explicitly: a zero Workers hint means serial in spec executors).
	results := eng.RunMatrix(figures.WSJobs(prof, cfg, figures.WSSizes(*short), *withRef, runner.PoolSize(*workers)))
	fmt.Print(figures.WorkingSet(results, cfg.Cost))
	fmt.Printf("avg Explorers engaged: %.2f\n", results[0].(*dse.Result).AvgExplorers)
}
