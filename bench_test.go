// Package repro's benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation section. Each benchmark runs its
// experiment at a reduced scale (so `go test -bench=.` completes in
// minutes) and reports the figure's headline quantities as custom metrics;
// `go run ./cmd/figures` regenerates the full-scale tables and plots.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/figures"
	"repro/internal/multiprog"
	"repro/internal/runner"
	"repro/internal/sampling"
	"repro/internal/stats"
	"repro/internal/warm"
	"repro/internal/workload"
)

// benchCfg is the reduced configuration shared by the benchmarks: the
// paper-shaped geometry (§5) with fewer regions.
func benchCfg() warm.Config {
	cfg := warm.DefaultConfig()
	cfg.Regions = 2
	return cfg
}

// benchSuite is a 4-benchmark slice spanning the interesting behaviours:
// best case (bwaves), worst case (povray), long reuses (GemsFDTD) and a
// mid-range integer workload (perlbench).
func benchSuite() []*workload.Profile {
	return []*workload.Profile{
		workload.Bwaves(), workload.Povray(), workload.GemsFDTD(), workload.Perlbench(),
	}
}

func BenchmarkTable1_Config(b *testing.B) {
	cfg := benchCfg()
	var s string
	for i := 0; i < b.N; i++ {
		s = figures.Table1(cfg)
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFigure5_Speed regenerates the normalized-speed comparison.
func BenchmarkFigure5_Speed(b *testing.B) {
	cfg := benchCfg()
	profs := benchSuite()
	for i := 0; i < b.N; i++ {
		cmp := sampling.RunAll(profs, cfg, sampling.Options{})
		s := sampling.Summarize(cmp)
		b.ReportMetric(s.AvgSpeedupVsSMARTS, "speedup-vs-SMARTS")
		b.ReportMetric(s.AvgSpeedupVsCoolSim, "speedup-vs-CoolSim")
		b.ReportMetric(s.DeLoreanMIPS, "DeLorean-MIPS")
	}
}

// BenchmarkFigure6_ReuseCounts regenerates the collected-reuse comparison.
func BenchmarkFigure6_ReuseCounts(b *testing.B) {
	cfg := benchCfg()
	profs := benchSuite()
	for i := 0; i < b.N; i++ {
		cmp := sampling.RunAll(profs, cfg, sampling.Options{SkipSMARTS: true})
		s := sampling.Summarize(cmp)
		b.ReportMetric(s.ReuseReduction, "reuse-reduction-x")
	}
}

// BenchmarkFigure7_ExplorerBreakdown regenerates the per-Explorer key split.
func BenchmarkFigure7_ExplorerBreakdown(b *testing.B) {
	cfg := benchCfg()
	prof := workload.GemsFDTD() // engages all four Explorers
	for i := 0; i < b.N; i++ {
		res := core.Run(prof, cfg)
		for k := 1; k <= 4; k++ {
			b.ReportMetric(float64(res.KeysPerExplorer[k]), "keys-e"+string(rune('0'+k)))
		}
	}
}

// BenchmarkFigure8_ExplorersEngaged regenerates the engagement averages.
func BenchmarkFigure8_ExplorersEngaged(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		lo := core.Run(workload.Bwaves(), cfg)
		hi := core.Run(workload.Zeusmp(), cfg)
		b.ReportMetric(lo.AvgExplorers, "explorers-bwaves")
		b.ReportMetric(hi.AvgExplorers, "explorers-zeusmp")
	}
}

// BenchmarkFigure9_CPI8M regenerates the 8 MiB-LLC accuracy comparison.
func BenchmarkFigure9_CPI8M(b *testing.B) {
	cfg := benchCfg()
	cfg.LLCPaperBytes = 8 << 20
	profs := benchSuite()
	for i := 0; i < b.N; i++ {
		cmp := sampling.RunAll(profs, cfg, sampling.Options{})
		s := sampling.Summarize(cmp)
		b.ReportMetric(s.AvgErrCoolSim*100, "err%-CoolSim")
		b.ReportMetric(s.AvgErrDeLorean*100, "err%-DeLorean")
	}
}

// BenchmarkFigure10_CPI512M regenerates the 512 MiB-LLC accuracy comparison.
func BenchmarkFigure10_CPI512M(b *testing.B) {
	cfg := benchCfg()
	cfg.LLCPaperBytes = 512 << 20
	profs := benchSuite()
	for i := 0; i < b.N; i++ {
		cmp := sampling.RunAll(profs, cfg, sampling.Options{})
		s := sampling.Summarize(cmp)
		b.ReportMetric(s.AvgErrCoolSim*100, "err%-CoolSim")
		b.ReportMetric(s.AvgErrDeLorean*100, "err%-DeLorean")
	}
}

// BenchmarkFigure11_VicinityDensity regenerates the density trade-off.
func BenchmarkFigure11_VicinityDensity(b *testing.B) {
	for _, dens := range []uint64{10_000, 100_000, 1_000_000} {
		dens := dens
		b.Run(byDensity(dens), func(b *testing.B) {
			cfg := benchCfg()
			cfg.VicinityEvery = dens
			prof := workload.GemsFDTD()
			for i := 0; i < b.N; i++ {
				res := core.Run(prof, cfg)
				b.ReportMetric(res.Counters.Get("fix/reuse_vicinity"), "vicinity-samples")
			}
		})
	}
}

func byDensity(d uint64) string {
	switch d {
	case 10_000:
		return "1per10k"
	case 100_000:
		return "1per100k"
	}
	return "1per1M"
}

// BenchmarkFigure12_Prefetch regenerates the prefetching sensitivity.
func BenchmarkFigure12_Prefetch(b *testing.B) {
	for _, pf := range []bool{false, true} {
		pf := pf
		name := "off"
		if pf {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Prefetch = pf
			prof := workload.Libquantum()
			for i := 0; i < b.N; i++ {
				ref := warm.RunSMARTS(prof, cfg)
				dlr := core.Run(prof, cfg)
				b.ReportMetric(sampling.CPIError(ref.CPI(), dlr.CPI())*100, "err%")
			}
		})
	}
}

// BenchmarkFigure13_WorkingSet regenerates one working-set curve.
func BenchmarkFigure13_WorkingSet(b *testing.B) {
	cfg := benchCfg()
	sizes := []uint64{1 << 20, 8 << 20, 64 << 20, 512 << 20}
	prof := workload.Lbm()
	for i := 0; i < b.N; i++ {
		res := dse.Run(prof, cfg, sizes)
		b.ReportMetric(res.PerSize[0].LLCMPKI(), "MPKI-1MiB")
		b.ReportMetric(res.PerSize[len(sizes)-1].LLCMPKI(), "MPKI-512MiB")
	}
}

// BenchmarkFigure14_DSE regenerates the CPI-vs-size sweep and its
// amortization statistics.
func BenchmarkFigure14_DSE(b *testing.B) {
	cfg := benchCfg()
	sizes := []uint64{1 << 20, 8 << 20, 64 << 20, 512 << 20}
	prof := workload.CactusADM()
	for i := 0; i < b.N; i++ {
		res := dse.Run(prof, cfg, sizes)
		b.ReportMetric(res.MarginalCost(cfg.Cost), "marginal-cost-x")
		b.ReportMetric(res.WarmingToDetailRatio(cfg.Cost), "warm-detail-ratio")
	}
}

// BenchmarkCoRun_Validation runs one co-run scenario (simulation +
// calibration + StatCC prediction) and reports the prediction errors.
func BenchmarkCoRun_Validation(b *testing.B) {
	cfg := benchCfg()
	scenarios := figures.CoRunMixes(true)[:1]
	sizes := figures.CoRunSizes(true)
	for i := 0; i < b.N; i++ {
		cells := figures.CoRunMatrix(runner.New(0), scenarios, sizes, cfg)
		var cpiErr, missErr float64
		var n int
		for _, c := range cells {
			for _, a := range c.Apps {
				cpiErr += a.CPIError()
				missErr += a.MissError()
				n++
			}
		}
		b.ReportMetric(cpiErr/float64(n)*100, "CPI-err-%")
		b.ReportMetric(missErr/float64(n), "miss-err-abs")
	}
}

// BenchmarkHeadline_MIPS regenerates the absolute-speed headline.
func BenchmarkHeadline_MIPS(b *testing.B) {
	cfg := benchCfg()
	profs := benchSuite()
	for i := 0; i < b.N; i++ {
		cmp := sampling.RunAll(profs, cfg, sampling.Options{SkipCoolSim: true})
		s := sampling.Summarize(cmp)
		b.ReportMetric(s.SMARTSMIPS, "SMARTS-MIPS")
		b.ReportMetric(s.DeLoreanMIPS, "DeLorean-MIPS")
	}
}

// BenchmarkRunner_Matrix measures the sharded execution engine itself on
// the same (benchmark × methodology) matrix the sampling layer builds —
// the entry point every CLI drives — and reports its scheduling overhead
// indirectly via total matrix time at two worker bounds.
func BenchmarkRunner_Matrix(b *testing.B) {
	cfg := benchCfg()
	profs := benchSuite()
	for _, workers := range []int{1, 0} { // serial, then GOMAXPROCS
		name := "serial"
		if workers == 0 {
			name = "maxprocs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cmp := sampling.RunAll(profs, cfg, sampling.Options{Eng: runner.New(workers), SkipSMARTS: true})
				b.ReportMetric(sampling.Summarize(cmp).DeLoreanMIPS, "DeLorean-MIPS")
			}
		})
	}
}

// BenchmarkRunner_CacheHit measures a fully cache-served matrix: the cost
// of re-requesting every figure's jobs on a warm engine.
func BenchmarkRunner_CacheHit(b *testing.B) {
	cfg := benchCfg()
	profs := benchSuite()
	eng := runner.New(0)
	warmup := sampling.Options{Eng: eng, SkipSMARTS: true, SkipCoolSim: true}
	sampling.RunAll(profs, cfg, warmup)
	_, missesBefore := eng.CacheStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp := sampling.RunAll(profs, cfg, warmup)
		if cmp.Benches[0].DeLorean == nil {
			b.Fatal("missing cached result")
		}
	}
	hits, misses := eng.CacheStats()
	if misses != missesBefore {
		b.Fatalf("warm engine re-ran %d jobs", misses-missesBefore)
	}
	b.ReportMetric(float64(hits)/float64(b.N), "cache-hits/op")
}

// BenchmarkExtension_StatCC exercises the §4.2 multi-programming model.
func BenchmarkExtension_StatCC(b *testing.B) {
	h := &stats.RDHist{}
	r := stats.NewRNG(17)
	for i := 0; i < 50000; i++ {
		h.Add(1 + r.Uint64n(4096))
	}
	apps := []multiprog.App{
		{Name: "a", Hist: h, AccessesPerInstr: 0.35, BaseCPI: 0.8, MissPenalty: 200},
		{Name: "b", Hist: h, AccessesPerInstr: 0.35, BaseCPI: 0.8, MissPenalty: 200},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := multiprog.Solve(apps, 2048, 50)
		b.ReportMetric(res[0].CPI, "shared-CPI")
	}
}
