// Package sampling orchestrates the paper's evaluation: it runs every
// benchmark under the three methodologies (SMARTS, CoolSim, DeLorean),
// computes the speed, accuracy and warm-up-cost metrics the figures
// report, and extrapolates window-proportional event counts from the
// scaled run back to paper scale (DESIGN.md §5).
package sampling

import (
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/warm"
	"repro/internal/workload"
)

// BenchResult bundles one benchmark's three evaluations.
type BenchResult struct {
	Bench    string
	SMARTS   *warm.Result
	CoolSim  *warm.Result
	DeLorean *core.Result
}

// Comparison is a full cross-methodology run.
type Comparison struct {
	Cfg     warm.Config
	Benches []BenchResult
}

// Options selects which methodologies to run.
type Options struct {
	SkipSMARTS   bool
	SkipCoolSim  bool
	SkipDeLorean bool
	// Eng, when set, executes the matrix on a shared runner engine so the
	// result cache and progress stream span multiple RunAll calls (the
	// figures CLI shares one engine across every figure), with that
	// engine's worker bound. When nil a private GOMAXPROCS-wide engine is
	// used.
	Eng *runner.Engine
}

// RunAll evaluates the given benchmarks under the selected methodologies
// by building a declarative (benchmark × methodology) spec matrix and
// running it on the sharded runner engine. Results are deterministic for
// any worker count: each spec's RNG seed derives from its identity, not
// from scheduling order.
func RunAll(profs []*workload.Profile, cfg warm.Config, opt Options) *Comparison {
	cmp := &Comparison{Cfg: cfg, Benches: make([]BenchResult, len(profs))}
	eng := opt.Eng
	if eng == nil {
		eng = runner.New(0)
	}
	var jobs []runner.Job
	var assign []func(any)
	for i, p := range profs {
		i := i
		ref := spec.Ref(p)
		cmp.Benches[i].Bench = p.Name
		if !opt.SkipSMARTS {
			jobs = append(jobs, spec.Job(spec.SamplingParams{Bench: ref, Method: spec.MethodSMARTS, Cfg: cfg}))
			assign = append(assign, func(v any) { cmp.Benches[i].SMARTS = v.(*warm.Result) })
		}
		if !opt.SkipCoolSim {
			jobs = append(jobs, spec.Job(spec.SamplingParams{Bench: ref, Method: spec.MethodCoolSim, Cfg: cfg}))
			assign = append(assign, func(v any) { cmp.Benches[i].CoolSim = v.(*warm.Result) })
		}
		if !opt.SkipDeLorean {
			jobs = append(jobs, spec.Job(spec.SamplingParams{Bench: ref, Method: spec.MethodDeLorean, Cfg: cfg}))
			assign = append(assign, func(v any) { cmp.Benches[i].DeLorean = v.(*core.Result) })
		}
	}
	for i, v := range eng.RunMatrix(jobs) {
		assign[i](v)
	}
	return cmp
}

// PaperSeconds converts a ledger to simulated seconds at *paper scale*:
// window-proportional event counts (fast-forwarded instructions, VDP
// triggers, samples) are multiplied by the scale factor, per-region fixed
// costs are kept as-is.
func PaperSeconds(cfg warm.Config, c *stats.Counters) float64 {
	cc := c.Clone()
	cc.Scale("win/", float64(cfg.Scale))
	return cfg.Cost.Seconds(cc)
}

// PaperInstr returns the instruction span of the run at paper scale.
func PaperInstr(cfg warm.Config) float64 {
	return float64(cfg.TotalInstr()) * float64(cfg.Scale)
}

// Speeds summarizes one benchmark's simulated speeds in MIPS at paper
// scale. The paper pipelines DeLorean's passes across regions, so its
// simulated wall time is the slowest pass (§3.2); SMARTS and CoolSim are
// single processes.
type Speeds struct {
	SMARTS, CoolSim, DeLorean float64 // MIPS
}

// BenchSpeeds computes paper-scale MIPS for one benchmark.
func BenchSpeeds(cfg warm.Config, b BenchResult) Speeds {
	instr := PaperInstr(cfg)
	var s Speeds
	if b.SMARTS != nil {
		s.SMARTS = instr / PaperSeconds(cfg, b.SMARTS.Counters) / 1e6
	}
	if b.CoolSim != nil {
		s.CoolSim = instr / PaperSeconds(cfg, b.CoolSim.Counters) / 1e6
	}
	if b.DeLorean != nil {
		var maxPass float64
		for _, pc := range b.DeLorean.PassCounters {
			if t := PaperSeconds(cfg, pc); t > maxPass {
				maxPass = t
			}
		}
		if maxPass > 0 {
			s.DeLorean = instr / maxPass / 1e6
		}
	}
	return s
}

// CPIError returns |cpi - ref| / ref against the SMARTS reference.
func CPIError(ref, cpi float64) float64 {
	if ref == 0 {
		return 0
	}
	d := cpi - ref
	if d < 0 {
		d = -d
	}
	return d / ref
}

// ReuseCounts returns the paper-scale number of collected reuse distances
// (Fig. 6): for CoolSim the randomized samples, for DeLorean the key
// reuses found plus the vicinity samples.
type ReuseCounts struct {
	CoolSim  float64
	DeLorean float64
}

// BenchReuseCounts extracts Fig. 6's quantities for one benchmark.
func BenchReuseCounts(cfg warm.Config, b BenchResult) ReuseCounts {
	var rc ReuseCounts
	s := float64(cfg.Scale)
	if b.CoolSim != nil {
		rc.CoolSim = b.CoolSim.Counters.Get("win/reuse_rsw") * s
	}
	if b.DeLorean != nil {
		c := b.DeLorean.Counters
		keys := 0.0
		for k := 1; k <= 4; k++ {
			keys += float64(b.DeLorean.KeysPerExplorer[k])
		}
		rc.DeLorean = keys + c.Get("fix/reuse_vicinity")
	}
	return rc
}

// Summary holds the cross-benchmark headline numbers (§6.1).
type Summary struct {
	AvgSpeedupVsSMARTS  float64 // DeLorean vs SMARTS (geomean)
	AvgSpeedupVsCoolSim float64
	DeLoreanMIPS        float64 // arithmetic mean
	CoolSimMIPS         float64
	SMARTSMIPS          float64
	ReuseReduction      float64 // CoolSim/DeLorean collected reuses (geomean)
	AvgErrDeLorean      float64
	AvgErrCoolSim       float64
}

// Summarize computes the headline aggregate over a comparison.
func Summarize(cmp *Comparison) Summary {
	var spdS, spdC, red []float64
	var mipsD, mipsC, mipsS, errD, errC []float64
	for _, b := range cmp.Benches {
		sp := BenchSpeeds(cmp.Cfg, b)
		if sp.SMARTS > 0 && sp.DeLorean > 0 {
			spdS = append(spdS, sp.DeLorean/sp.SMARTS)
		}
		if sp.CoolSim > 0 && sp.DeLorean > 0 {
			spdC = append(spdC, sp.DeLorean/sp.CoolSim)
		}
		if sp.DeLorean > 0 {
			mipsD = append(mipsD, sp.DeLorean)
		}
		if sp.CoolSim > 0 {
			mipsC = append(mipsC, sp.CoolSim)
		}
		if sp.SMARTS > 0 {
			mipsS = append(mipsS, sp.SMARTS)
		}
		rc := BenchReuseCounts(cmp.Cfg, b)
		if rc.CoolSim > 0 && rc.DeLorean > 0 {
			red = append(red, rc.CoolSim/rc.DeLorean)
		}
		if b.SMARTS != nil {
			ref := b.SMARTS.CPI()
			if b.DeLorean != nil {
				errD = append(errD, CPIError(ref, b.DeLorean.CPI()))
			}
			if b.CoolSim != nil {
				errC = append(errC, CPIError(ref, b.CoolSim.CPI()))
			}
		}
	}
	return Summary{
		AvgSpeedupVsSMARTS:  stats.GeoMean(spdS),
		AvgSpeedupVsCoolSim: stats.GeoMean(spdC),
		DeLoreanMIPS:        stats.Mean(mipsD),
		CoolSimMIPS:         stats.Mean(mipsC),
		SMARTSMIPS:          stats.Mean(mipsS),
		ReuseReduction:      stats.GeoMean(red),
		AvgErrDeLorean:      stats.Mean(errD),
		AvgErrCoolSim:       stats.Mean(errC),
	}
}
