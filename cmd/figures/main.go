// Command figures regenerates every table and figure of the paper's
// evaluation section and writes them to EXPERIMENTS.md (or stdout). It is
// a thin front over figures.WriteReport on the shared spec → runner →
// artifact-store pipeline: with -store, a second run against the same
// directory executes zero experiments and reproduces the report
// byte-identically from persisted artifacts.
//
// Usage:
//
//	figures [-short] [-out EXPERIMENTS.md] [-only fig5,fig6,...] [-store DIR]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/figures"
	"repro/internal/lab"
)

func main() {
	var (
		short    = flag.Bool("short", false, "reduced sweep sizes for quick runs")
		outArg   = flag.String("out", "", "output file (default stdout)")
		only     = flag.String("only", "", "comma-separated subset: table1,fig5..fig14,corun,headline,ablation")
		workers  = flag.Int("workers", 0, "experiment worker pool size (0 = GOMAXPROCS)")
		prog     = flag.Bool("progress", false, "stream per-job completion to stderr")
		storeDir = flag.String("store", "", "artifact store directory (persists results across runs)")
		storeMax = flag.Int64("store-max-mb", 0, "artifact store size budget in MiB (0 = unbounded)")
	)
	flag.Parse()
	want, err := figures.ParseOnly(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	opt := figures.DefaultOptions()
	opt.Short = *short
	if *short {
		opt.Cfg.Regions = 4
		opt.Benchmarks = opt.Benchmarks[:8]
	}

	// One engine for the whole run: every figure's sweep shares its worker
	// pool and result cache, so configurations that recur across figures
	// (e.g. the default-density point of Fig. 11) are never re-run — and
	// with -store, not even across processes.
	eng, _, err := lab.NewEngine(*workers, *storeDir, *storeMax<<20)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *prog {
		eng.OnProgress = lab.ProgressPrinter(os.Stderr)
	}
	opt.Eng = eng

	var out *os.File = os.Stdout
	if *outArg != "" {
		f, err := os.Create(*outArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		out = f
	}

	start := time.Now()
	figures.WriteReport(out, opt, want, os.Stderr)
	hits, misses := eng.CacheStats()
	fmt.Fprintf(os.Stderr, "total: %.1fs (%d jobs run, %d served from memory, %d from store)\n",
		time.Since(start).Seconds(), misses, hits, eng.StoreHits())
}
