// Command bench runs the internal/perf end-to-end scenarios and reports
// ns/access (aggregate mean and per-repetition median), allocs/access and
// accesses/sec, optionally persisting the results as JSON and gating
// against checked-in references. The -compare gate judges the median when
// both reports carry one (see perf.Compare) so a single outlier
// repetition — one slow fsync — cannot fail CI.
//
// Usage:
//
//	go run ./cmd/bench                         # full run, table to stdout
//	go run ./cmd/bench -quick -out bench.json  # CI smoke run
//	go run ./cmd/bench -quick -compare BENCH_after.json -maxregress 0.20
//	go run ./cmd/bench -cpuprofile cpu.pprof -scenarios solo-pipeline
//	go run ./cmd/bench -cpuprofile-per-scenario prof/   # one pprof per scenario
//
// The repo root's BENCH_baseline.json (pre-batching) and BENCH_after.json
// (post-batching) record the perf trajectory; see README "Benchmarks".
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/perf"
)

func main() {
	quick := flag.Bool("quick", false, "smaller windows, shorter measurement (CI smoke mode)")
	out := flag.String("out", "", "write the report as JSON to this path")
	scenarios := flag.String("scenarios", "", "comma-separated scenario names (default: all)")
	compare := flag.String("compare", "", "comma-separated reference JSON files; exit 1 on regression")
	maxRegress := flag.Float64("maxregress", 0.20, "allowed ns/access regression vs -compare references")
	maxAllocRegress := flag.Float64("maxallocregress", 0,
		"allowed allocs/access growth vs -compare references, plus 0.5 absolute slack (0 = no alloc gate)")
	secs := flag.Float64("time", 0, "target seconds per scenario (default 2, quick 0.5)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	cpuprofileEach := flag.String("cpuprofile-per-scenario", "",
		"write one CPU profile per scenario to <dir>/<scenario>.pprof (mutually exclusive with -cpuprofile)")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path")
	list := flag.Bool("list", false, "list scenarios and exit")
	flag.Parse()

	if *list {
		for _, s := range perf.Scenarios() {
			fmt.Printf("%-14s %s\n", s.Name, s.Desc)
		}
		return
	}

	var names []string
	if *scenarios != "" {
		names = strings.Split(*scenarios, ",")
	}
	scens := perf.Named(names)
	if len(scens) == 0 {
		fmt.Fprintf(os.Stderr, "bench: no scenarios match %q\n", *scenarios)
		os.Exit(2)
	}

	target := 2 * time.Second
	if *quick {
		target = 500 * time.Millisecond
	}
	if *secs > 0 {
		target = time.Duration(*secs * float64(time.Second))
	}

	if *cpuprofile != "" && *cpuprofileEach != "" {
		fmt.Fprintln(os.Stderr, "bench: -cpuprofile and -cpuprofile-per-scenario are mutually exclusive")
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	rep, err := perf.RunAll(scens, *quick, target, *cpuprofileEach)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%-14s %12s %12s %14s %14s %10s\n",
		"scenario", "ns/access", "median", "accesses/sec", "allocs/access", "accesses")
	for _, m := range rep.Scenarios {
		fmt.Printf("%-14s %12.1f %12.1f %14.0f %14.4f %10d\n",
			m.Scenario, m.NsPerAccess, m.NsPerAccessMedian, m.AccessesPerSec, m.AllocsPerAccess, m.Accesses)
	}

	if *out != "" {
		if err := rep.WriteJSON(*out); err != nil {
			fatal(err)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *compare != "" {
		failed := false
		for _, path := range strings.Split(*compare, ",") {
			ref, err := perf.LoadReport(path)
			if err != nil {
				fatal(err)
			}
			if ref.Quick != rep.Quick || ref.GoVersion != rep.GoVersion {
				fmt.Fprintf(os.Stderr,
					"bench: note: %s was recorded with quick=%v/%s, this run is quick=%v/%s — "+
						"absolute ns/access is only loosely comparable\n",
					path, ref.Quick, ref.GoVersion, rep.Quick, rep.GoVersion)
			}
			regs := perf.Compare(ref, rep, *maxRegress)
			for _, g := range regs {
				fmt.Fprintf(os.Stderr, "REGRESSION vs %s: %s\n", path, g)
				failed = true
			}
			if len(regs) == 0 {
				fmt.Printf("ok: within %.0f%% of %s\n", *maxRegress*100, path)
			}
			if *maxAllocRegress > 0 {
				aregs := perf.CompareAllocs(ref, rep, *maxAllocRegress)
				for _, g := range aregs {
					fmt.Fprintf(os.Stderr, "ALLOC REGRESSION vs %s: %s\n", path, g)
					failed = true
				}
				if len(aregs) == 0 {
					fmt.Printf("ok: allocs/access within %.0f%%+0.5 of %s\n", *maxAllocRegress*100, path)
				}
			}
		}
		if failed {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
