// Package figures regenerates every table and figure of the paper's
// evaluation (§5, §6). Each runner returns a text report; cmd/figures
// stitches them into EXPERIMENTS.md. The reproduction targets the *shape*
// of each result — who wins, by roughly what factor, where knees and
// crossovers fall — not absolute gem5 numbers (DESIGN.md §2).
package figures

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dse"
	"repro/internal/runner"
	"repro/internal/sampling"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/warm"
	"repro/internal/workload"
)

// Options configures a full reproduction run.
type Options struct {
	Cfg warm.Config
	// Benchmarks defaults to the full 24-benchmark suite.
	Benchmarks []*workload.Profile
	// Short shrinks the working-set sweep and the sensitivity analyses.
	Short bool
	// Eng is the shared runner engine every figure's sweep executes on.
	// Sharing one engine across figures lets jobs with identical
	// configurations (Fig. 11's default-density point, Fig. 13/14's 8 MiB
	// SMARTS references) reuse cached results. Nil means each figure runs
	// on its own engine.
	Eng *runner.Engine
}

// DefaultOptions mirrors the paper's setup.
func DefaultOptions() Options {
	return Options{Cfg: warm.DefaultConfig(), Benchmarks: workload.Benchmarks(),
		Eng: runner.New(0)}
}

// engine returns the shared engine, or a private one when unset.
func (o Options) engine() *runner.Engine {
	if o.Eng != nil {
		return o.Eng
	}
	return runner.New(0)
}

// Table1 renders the simulated processor configuration.
func Table1(cfg warm.Config) string {
	h := cfg.HierConfig()
	t := textplot.NewTable("Table 1: simulated processor architecture "+
		"(paper values; scaled capacities in parentheses)", "structure", "configuration")
	c := cfg.CPU
	t.AddRow("ROB", fmt.Sprintf("%d entries", c.ROB))
	t.AddRow("IQ / LQ / SQ", fmt.Sprintf("%d / %d / %d entries", c.IQ, c.LQ, c.SQ))
	t.AddRow("Issue", fmt.Sprintf("%d wide", c.Width))
	t.AddRow("Branch predictor", fmt.Sprintf("tournament: %d local / %d global / %d choice 2-bit counters, %d-entry BTB",
		c.BP.LocalEntries, c.BP.GlobalEntries, c.BP.ChoiceEntries, c.BP.BTBEntries))
	t.AddRow("L1-I", fmt.Sprintf("64 KiB (%d KiB), %d-way LRU, 64 B line", h.L1I.SizeB/1024, h.L1I.Assoc))
	t.AddRow("L1-D", fmt.Sprintf("64 KiB (%d KiB), %d-way LRU, 64 B line", h.L1D.SizeB/1024, h.L1D.Assoc))
	t.AddRow("LLC", fmt.Sprintf("1 MiB to 512 MiB (scaled /%d), %d-way LRU, 64 B line", cfg.Scale, h.LLC.Assoc))
	t.AddRow("MSHRs", fmt.Sprintf("%d (L1-I), %d (L1-D), %d (LLC)", h.L1I.MSHRs, h.L1D.MSHRs, h.LLC.MSHRs))
	return t.String()
}

// Fig5 renders normalized simulation speed (paper: DeLorean 96x over
// SMARTS, 5.7x over CoolSim on average).
func Fig5(cmp *sampling.Comparison) string {
	var b strings.Builder
	chart := textplot.NewBarChart("Figure 5: simulation speed normalized to SMARTS (log bars)", true)
	tbl := textplot.NewTable("", "benchmark", "SMARTS MIPS", "CoolSim MIPS", "DeLorean MIPS", "vs SMARTS", "vs CoolSim")
	var vsS, vsC []float64
	for _, bench := range cmp.Benches {
		sp := sampling.BenchSpeeds(cmp.Cfg, bench)
		if sp.SMARTS == 0 {
			continue
		}
		chart.Add(bench.Bench, sp.DeLorean/sp.SMARTS)
		tbl.AddRowf("%s", bench.Bench, "%.2f", sp.SMARTS, "%.1f", sp.CoolSim,
			"%.1f", sp.DeLorean, "%.1fx", sp.DeLorean/sp.SMARTS, "%.1fx", sp.DeLorean/sp.CoolSim)
		vsS = append(vsS, sp.DeLorean/sp.SMARTS)
		vsC = append(vsC, sp.DeLorean/sp.CoolSim)
	}
	b.WriteString(chart.String())
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "average speedup: %.1fx vs SMARTS (paper: 96x), %.1fx vs CoolSim (paper: 5.7x)\n",
		stats.GeoMean(vsS), stats.GeoMean(vsC))
	return b.String()
}

// Fig6 renders the number of collected reuse distances (paper: 30x fewer
// under DSW, up to 6800x).
func Fig6(cmp *sampling.Comparison) string {
	var b strings.Builder
	tbl := textplot.NewTable("Figure 6: collected reuse distances, paper scale (log axis in the paper)",
		"benchmark", "CoolSim (RSW)", "DeLorean (DSW)", "reduction")
	var red []float64
	for _, bench := range cmp.Benches {
		rc := sampling.BenchReuseCounts(cmp.Cfg, bench)
		if rc.CoolSim == 0 {
			continue
		}
		r := rc.CoolSim / rc.DeLorean
		tbl.AddRowf("%s", bench.Bench, "%.0f", rc.CoolSim, "%.0f", rc.DeLorean, "%.0fx", r)
		red = append(red, r)
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "average reduction: %.0fx (paper: 30x, up to 6800x)\n", stats.GeoMean(red))
	return b.String()
}

// Fig7 renders the per-Explorer key reuse breakdown.
func Fig7(cmp *sampling.Comparison) string {
	tbl := textplot.NewTable("Figure 7: key reuse distances by collecting Explorer (percent)",
		"benchmark", "E1", "E2", "E3", "E4", "unresolved")
	for _, bench := range cmp.Benches {
		d := bench.DeLorean
		if d == nil {
			continue
		}
		var tot float64
		for k := 0; k <= 4; k++ {
			tot += float64(d.KeysPerExplorer[k])
		}
		if tot == 0 {
			tbl.AddRow(bench.Bench, "-", "-", "-", "-", "-")
			continue
		}
		pct := func(k int) string {
			return fmt.Sprintf("%.1f%%", 100*float64(d.KeysPerExplorer[k])/tot)
		}
		tbl.AddRow(bench.Bench, pct(1), pct(2), pct(3), pct(4), pct(0))
	}
	return tbl.String()
}

// Fig8 renders the average number of engaged Explorers.
func Fig8(cmp *sampling.Comparison) string {
	chart := textplot.NewBarChart("Figure 8: average number of Explorers engaged per region (0-4)", false)
	for _, bench := range cmp.Benches {
		if bench.DeLorean != nil {
			chart.Add(bench.Bench, bench.DeLorean.AvgExplorers)
		}
	}
	return chart.String()
}

// FigCPI renders Figures 9 and 10: per-benchmark CPI under the three
// methodologies for one LLC size. paperCoolSim and paperDeLorean are the
// paper's average CPI errors, printed next to the measured ones in the
// same order.
func FigCPI(cmp *sampling.Comparison, figure string, llcPaperMB int, paperCoolSim, paperDeLorean string) string {
	var b strings.Builder
	tbl := textplot.NewTable(
		fmt.Sprintf("%s: CPI with a %d MiB(-equivalent) LLC", figure, llcPaperMB),
		"benchmark", "SMARTS (ref)", "CoolSim", "DeLorean", "err CoolSim", "err DeLorean")
	var errC, errD []float64
	for _, bench := range cmp.Benches {
		if bench.SMARTS == nil {
			continue
		}
		ref := bench.SMARTS.CPI()
		var cc, dd float64
		if bench.CoolSim != nil {
			cc = bench.CoolSim.CPI()
		}
		if bench.DeLorean != nil {
			dd = bench.DeLorean.CPI()
		}
		ec, ed := sampling.CPIError(ref, cc), sampling.CPIError(ref, dd)
		errC = append(errC, ec)
		errD = append(errD, ed)
		tbl.AddRowf("%s", bench.Bench, "%.3f", ref, "%.3f", cc, "%.3f", dd,
			"%.1f%%", ec*100, "%.1f%%", ed*100)
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "average CPI error: CoolSim %.1f%%, DeLorean %.1f%% (paper: CoolSim %s, DeLorean %s)\n",
		stats.Mean(errC)*100, stats.Mean(errD)*100, paperCoolSim, paperDeLorean)
	return b.String()
}

// Fig11 renders the vicinity-density speed/accuracy trade-off (paper:
// 1/10k -> 2.2% at 71.3 MIPS; 1/100k -> 3.5% at 126 MIPS).
func Fig11(opt Options, ref *sampling.Comparison) string {
	densities := []uint64{10_000, 100_000, 1_000_000}
	var b strings.Builder
	tbl := textplot.NewTable("Figure 11: speed-accuracy trade-off vs vicinity sampling density (8 MiB LLC)",
		"density", "avg error", "avg MIPS")
	for _, dens := range densities {
		cfg := opt.Cfg
		cfg.VicinityEvery = dens
		cmp := sampling.RunAll(opt.Benchmarks, cfg,
			sampling.Options{SkipSMARTS: true, SkipCoolSim: true, Eng: opt.Eng})
		var errs, mips []float64
		for i, bench := range cmp.Benches {
			refCPI := ref.Benches[i].SMARTS.CPI()
			errs = append(errs, sampling.CPIError(refCPI, bench.DeLorean.CPI()))
			mips = append(mips, sampling.BenchSpeeds(cfg, bench).DeLorean)
		}
		tbl.AddRowf("1/%d", dens, "%.1f%%", stats.Mean(errs)*100, "%.0f", stats.Mean(mips))
	}
	b.WriteString(tbl.String())
	b.WriteString("denser vicinity sampling -> lower error, lower speed (paper: 2.2%/71.3 MIPS at 1/10k, 3.5%/126 MIPS at 1/100k)\n")
	return b.String()
}

// Fig12 renders CPI error with and without the LLC stride prefetcher,
// sorted per the paper's presentation (paper: slightly more accurate with
// prefetching).
func Fig12(opt Options, ref *sampling.Comparison) string {
	cfg := opt.Cfg
	cfg.Prefetch = true
	pf := sampling.RunAll(opt.Benchmarks, cfg, sampling.Options{SkipCoolSim: true, Eng: opt.Eng})
	var withPf, withoutPf []float64
	for i, bench := range pf.Benches {
		withPf = append(withPf, sampling.CPIError(bench.SMARTS.CPI(), bench.DeLorean.CPI()))
		rb := ref.Benches[i]
		withoutPf = append(withoutPf, sampling.CPIError(rb.SMARTS.CPI(), rb.DeLorean.CPI()))
	}
	sort.Float64s(withPf)
	sort.Float64s(withoutPf)
	var b strings.Builder
	tbl := textplot.NewTable("Figure 12: sorted DeLorean CPI error, with and without LLC stride prefetching (8 MiB LLC)",
		"rank", "w/o prefetch", "w/ prefetch")
	for i := range withPf {
		tbl.AddRowf("%d", i+1, "%.1f%%", withoutPf[i]*100, "%.1f%%", withPf[i]*100)
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "average error: %.1f%% without, %.1f%% with prefetching (paper: slightly more accurate with prefetching)\n",
		stats.Mean(withoutPf)*100, stats.Mean(withPf)*100)
	return b.String()
}

// WSBenchmarks are the paper's Fig. 13/14 example benchmarks.
func WSBenchmarks() []*workload.Profile {
	return []*workload.Profile{workload.CactusADM(), workload.Leslie3d(), workload.Lbm()}
}

// WSSizes returns the paper's LLC size axis (1..512 MiB, paper scale).
func WSSizes(short bool) []uint64 {
	if short {
		return []uint64{1 << 20, 8 << 20, 64 << 20, 512 << 20}
	}
	out := make([]uint64, 0, 10)
	for s := uint64(1 << 20); s <= 512<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Fig13and14 renders the working-set curves (MPKI vs size) and the
// CPI-vs-size DSE curves, all DeLorean points from a single warm-up, plus
// the amortization statistics of §6.4.2.
func Fig13and14(opt Options) string {
	sizes := WSSizes(opt.Short)
	benches := WSBenchmarks()
	var b strings.Builder
	b.WriteString("Figure 13 (working-set curves) and Figure 14 (CPI vs LLC size)\n")
	b.WriteString("Reference = SMARTS per size; DeLorean points all come from ONE shared warm-up per benchmark (§3.3).\n\n")

	// One matrix: a DSE sweep per benchmark plus a SMARTS reference per
	// (benchmark, size), all sharded together on the runner.
	var jobs []runner.Job
	for _, prof := range benches {
		ref := spec.Ref(prof)
		// The matrix pool is the unit of parallelism here, so the DSE
		// spec's inner Analyst fan-out runs serially — the per-size SMARTS
		// jobs already saturate the workers.
		jobs = append(jobs, spec.Job(spec.DSESweepParams{Bench: ref, Sizes: sizes, Cfg: opt.Cfg, Workers: 1}))
		for _, s := range sizes {
			cfg := opt.Cfg
			cfg.LLCPaperBytes = s
			jobs = append(jobs, spec.Job(spec.SamplingParams{Bench: ref, Method: spec.MethodSMARTS, Cfg: cfg}))
		}
	}
	results := opt.engine().RunMatrix(jobs)

	perBench := 1 + len(sizes) // one DSE job, then the per-size references
	for bi, prof := range benches {
		dseRes := results[bi*perBench].(*dse.Result)
		refs := make([]*warm.Result, len(sizes))
		for i := range sizes {
			refs[i] = results[bi*perBench+1+i].(*warm.Result)
		}
		var xs, refMPKI, dseMPKI, refCPI, dseCPI []float64
		tbl := textplot.NewTable(prof.Name, "LLC (paper MiB)", "ref MPKI", "DeLorean MPKI", "ref CPI", "DeLorean CPI")
		for i, s := range sizes {
			xs = append(xs, float64(s>>20))
			refMPKI = append(refMPKI, refs[i].LLCMPKI())
			dseMPKI = append(dseMPKI, dseRes.PerSize[i].LLCMPKI())
			refCPI = append(refCPI, refs[i].CPI())
			dseCPI = append(dseCPI, dseRes.PerSize[i].CPI())
			tbl.AddRowf("%d", s>>20, "%.2f", refMPKI[i], "%.2f", dseMPKI[i],
				"%.3f", refCPI[i], "%.3f", dseCPI[i])
		}
		mpkiPlot := textplot.NewLinePlot("Fig 13 "+prof.Name+": MPKI vs LLC size", "MiB", "MPKI", true)
		mpkiPlot.AddSeries("SMARTS", xs, refMPKI)
		mpkiPlot.AddSeries("DeLorean", xs, dseMPKI)
		cpiPlot := textplot.NewLinePlot("Fig 14 "+prof.Name+": CPI vs LLC size", "MiB", "CPI", true)
		cpiPlot.AddSeries("SMARTS", xs, refCPI)
		cpiPlot.AddSeries("DeLorean", xs, dseCPI)
		b.WriteString(tbl.String())
		b.WriteString(mpkiPlot.String())
		b.WriteString(cpiPlot.String())
		fmt.Fprintf(&b, "%s amortization: warming/detail ratio %.0fx (paper ~235x), marginal cost of %d analysts %.2fx (paper <1.05x for 10)\n\n",
			prof.Name, dseRes.WarmingToDetailRatio(opt.Cfg.Cost), len(sizes), dseRes.MarginalCost(opt.Cfg.Cost))
	}
	return b.String()
}

// Headline renders the §6.1 summary statistics.
func Headline(cmp *sampling.Comparison) string {
	s := sampling.Summarize(cmp)
	var b strings.Builder
	b.WriteString("Headline (§6.1):\n")
	fmt.Fprintf(&b, "  DeLorean speedup vs SMARTS:   %.1fx   (paper:  96x)\n", s.AvgSpeedupVsSMARTS)
	fmt.Fprintf(&b, "  DeLorean speedup vs CoolSim:  %.1fx   (paper: 5.7x)\n", s.AvgSpeedupVsCoolSim)
	fmt.Fprintf(&b, "  absolute speed (MIPS):        SMARTS %.1f / CoolSim %.1f / DeLorean %.0f (paper: 1.3 / 21.9 / 126)\n",
		s.SMARTSMIPS, s.CoolSimMIPS, s.DeLoreanMIPS)
	fmt.Fprintf(&b, "  reuse-distance reduction:     %.0fx   (paper: 30x)\n", s.ReuseReduction)
	fmt.Fprintf(&b, "  CPI error:                    CoolSim %.1f%% / DeLorean %.1f%% (paper: ~9%% / ~3%%)\n",
		s.AvgErrCoolSim*100, s.AvgErrDeLorean*100)
	// Lukewarm statistics (§3.1.2 text).
	var luke, luked, keys []float64
	for _, bench := range cmp.Benches {
		if bench.DeLorean != nil {
			luke = append(luke, bench.DeLorean.LukewarmHitRate())
			luked = append(luked, bench.DeLorean.HitOrDelayedRate())
			keys = append(keys, bench.DeLorean.Counters.Get("fix/keys_total")/float64(len(bench.DeLorean.Regions)))
		}
	}
	fmt.Fprintf(&b, "  lukewarm hit rate:            %.1f%% avg (paper: 93.5%%)\n", stats.Mean(luke)*100)
	fmt.Fprintf(&b, "  lukewarm hit+delayed rate:    %.1f%% avg (paper: 96.7%%)\n", stats.Mean(luked)*100)
	fmt.Fprintf(&b, "  key cachelines per region:    %.0f avg (paper: 151 avg, 1..2907)\n", stats.Mean(keys))
	return b.String()
}
