// Command corun simulates multi-core co-run scenarios on a shared LLC and
// compares each app's measured CPI and miss ratio against the StatCC
// prediction solved from solo profiles (§4.2).
//
// Usage:
//
//	corun [-mixes omnetpp,hmmer;libquantum,astar] [-llc 4,16] [-scale 64]
//
// Mixes are semicolon-separated lists of comma-separated suite benchmark
// names; -llc takes paper-scale MiB values.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/warm"
	"repro/internal/workload"
)

func main() {
	var (
		mixArg   = flag.String("mixes", "omnetpp,hmmer;libquantum,astar;omnetpp,astar,hmmer", "semicolon-separated app mixes (comma-separated benchmark names)")
		llcArg   = flag.String("llc", "4,16", "shared-LLC sizes in paper-scale MiB, comma-separated")
		scale    = flag.Uint64("scale", 64, "scale factor dividing paper-scale capacities and windows")
		workers  = flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
		storeDir = flag.String("store", "", "artifact store directory (persists results across runs)")
		storeMax = flag.Int64("store-max-mb", 0, "artifact store size budget in MiB (0 = unbounded)")
		prog     = flag.Bool("progress", false, "stream per-job completion to stderr")
	)
	flag.Parse()

	var scenarios []figures.CoRunScenario
	for _, mix := range strings.Split(*mixArg, ";") {
		mix = strings.TrimSpace(mix)
		if mix == "" {
			continue
		}
		var apps []*workload.Profile
		for _, name := range strings.Split(mix, ",") {
			name = strings.TrimSpace(name)
			p := workload.ByName(name)
			if p == nil {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q; known: ", name)
				for i, b := range workload.Benchmarks() {
					if i > 0 {
						fmt.Fprint(os.Stderr, ", ")
					}
					fmt.Fprint(os.Stderr, b.Name)
				}
				fmt.Fprintln(os.Stderr)
				os.Exit(1)
			}
			apps = append(apps, p)
		}
		if len(apps) == 0 {
			continue
		}
		scenarios = append(scenarios, figures.CoRunScenario{Name: mix, Apps: apps})
	}
	if len(scenarios) == 0 {
		fmt.Fprintln(os.Stderr, "no mixes given")
		os.Exit(1)
	}

	var sizes []uint64
	for _, s := range strings.Split(*llcArg, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		mb, err := strconv.ParseUint(s, 10, 32)
		if err != nil || mb == 0 {
			fmt.Fprintf(os.Stderr, "bad -llc entry %q\n", s)
			os.Exit(1)
		}
		sizes = append(sizes, mb<<20)
	}
	if len(sizes) == 0 {
		fmt.Fprintln(os.Stderr, "no LLC sizes given")
		os.Exit(1)
	}

	cfg := warm.DefaultConfig()
	cfg.Scale = *scale

	eng, _, err := lab.NewEngine(*workers, *storeDir, *storeMax<<20)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *prog {
		eng.OnProgress = lab.ProgressPrinter(os.Stderr)
	}

	cells := figures.CoRunMatrix(eng, scenarios, sizes, cfg)
	fmt.Print(figures.RenderCoRun(cells))
}
