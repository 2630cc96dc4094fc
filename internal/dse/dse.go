// Package dse implements the paper's design-space-exploration use case
// (§3.3, §6.4.2): because reuse distance is microarchitecture-independent,
// one Scout plus one set of Explorers can feed many parallel Analysts,
// each simulating a different LLC configuration. Warm-up — which dominates
// evaluation cost by a factor of ~235x — is paid once and amortized, so
// the marginal cost of an extra configuration is only its Analyst.
package dse

import (
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// Result is one benchmark explored across LLC sizes from a single warm-up.
type Result struct {
	Bench string
	Sizes []uint64 // paper-scale LLC bytes
	// PerSize holds one Analyst's region results per LLC size.
	PerSize []*warm.Result
	// WarmingCounters is the shared Scout+Explorer ledger; AnalystCounters
	// has one ledger per Analyst.
	WarmingCounters *stats.Counters
	AnalystCounters []*stats.Counters
	AvgExplorers    float64
}

// MarginalCost returns the resource cost of the N-Analyst run relative to
// a single-configuration run: (W + N*A) / (W + A). The paper reports less
// than 1.05x for 10 Analysts (§6.4.2).
func (r *Result) MarginalCost(cm vm.CostModel) float64 {
	w := cm.Seconds(r.WarmingCounters)
	var aTot, a0 float64
	for i, c := range r.AnalystCounters {
		s := cm.Seconds(c)
		aTot += s
		if i == 0 {
			a0 = s
		}
	}
	if w+a0 == 0 {
		return 1
	}
	return (w + aTot) / (w + a0)
}

// WarmingToDetailRatio returns warm-up cost over one Analyst's detailed
// cost (the paper quotes ~235x).
func (r *Result) WarmingToDetailRatio(cm vm.CostModel) float64 {
	if len(r.AnalystCounters) == 0 {
		return 0
	}
	a := cm.Seconds(r.AnalystCounters[0])
	if a == 0 {
		return 0
	}
	return cm.Seconds(r.WarmingCounters) / a
}

// Run evaluates one benchmark across llcPaperSizes with a single shared
// warm-up. The Scout's lukewarm filter uses the smallest LLC so its key
// set is a superset of what any Analyst needs. The Analysts run
// concurrently on a bounded worker pool — the §3.3 amortization story —
// and, because each owns its program instance, engine and result slot,
// produce the same results as a serial fan-out.
func Run(prof *workload.Profile, cfg warm.Config, llcPaperSizes []uint64) *Result {
	return RunParallel(prof, cfg, llcPaperSizes, 0)
}

// RunParallel is Run with an explicit Analyst worker bound (<= 0:
// GOMAXPROCS). Any bound produces identical results — workers only change
// how the per-region fan-out is scheduled.
func RunParallel(prof *workload.Profile, cfg warm.Config, llcPaperSizes []uint64, workers int) *Result {
	res := &Result{Bench: prof.Name, Sizes: llcPaperSizes,
		WarmingCounters: stats.NewCounters()}
	if len(llcPaperSizes) == 0 {
		return res
	}
	minSize := llcPaperSizes[0]
	for _, s := range llcPaperSizes {
		if s < minSize {
			minSize = s
		}
	}
	scoutCfg := cfg
	scoutCfg.LLCPaperBytes = minSize
	d := core.New(prof, scoutCfg)

	analysts := make([]*vm.Engine, len(llcPaperSizes))
	analystCfgs := make([]warm.Config, len(llcPaperSizes))
	for i := range analysts {
		analysts[i] = vm.NewEngine(prof.NewProgram(cfg.Scale))
		analystCfgs[i] = cfg
		analystCfgs[i].LLCPaperBytes = llcPaperSizes[i]
		res.AnalystCounters = append(res.AnalystCounters, analysts[i].Counters)
		res.PerSize = append(res.PerSize, &warm.Result{
			Bench: prof.Name, Method: "DeLorean-DSE", Counters: analysts[i].Counters})
	}

	var engagedSum int
	for m := 0; m < cfg.Regions; m++ {
		if cfg.Cancelled() {
			break // partial; the caller discards it via its context error
		}
		rd := d.ScoutRegion(m)
		for k := 0; k < len(cfg.ExplorerWindows); k++ {
			d.ExploreRegion(k, rd)
		}
		engagedSum += rd.Engaged
		records := rd.AllRecords()
		// Every Analyst seeks to the warm point the Scout's tracker captured:
		// DetailWarm is size-independent (the sizes vary only the LLC), so
		// one checkpoint serves all of them and the gap is replayed once
		// per region, not once per LLC size.
		runner.ForEach(len(analysts), workers, func(i int) {
			sizeCfg := analystCfgs[i]
			eng := analysts[i]
			eng.Prop = true
			hier := cache.NewHierarchy(sizeCfg.HierConfig(), nil)
			cr := cpu.NewCore(sizeCfg.CPU, hier, nil)
			oracle := warm.NewDSWOracle(records, rd.Vicinity, rd.Assoc, hier)
			rr, err := warm.EvalRegionAt(sizeCfg, eng, rd.WarmPos, cr, oracle)
			if err != nil {
				// Tracker and Analysts run the same program at the same
				// scale; a seek failure is a programming bug.
				panic(err)
			}
			res.PerSize[i].Regions = append(res.PerSize[i].Regions, rr)
		})
	}
	if cfg.Regions > 0 {
		res.AvgExplorers = float64(engagedSum) / float64(cfg.Regions)
	}

	// Shared warm-up ledger: every pass except the Analyst (which the DSE
	// analysts replaced).
	for name, c := range d.PassLedgers() {
		if name != "analyst" {
			res.WarmingCounters.Merge(c)
		}
	}
	return res
}
