package warm

import (
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/vm"
	"repro/internal/workload"
)

// RunSMARTS evaluates one benchmark with functional warming, the SMARTS
// methodology [34]: between detailed regions, every instruction runs
// through functional simulation that keeps the caches and the branch
// predictor warm; each region then gets detailed warming plus detailed
// simulation on the *continuously warm* state. It is the accuracy
// reference for Figures 9, 10, 13 and 14, and the speed baseline of
// Figure 5.
func RunSMARTS(prof *workload.Profile, cfg Config) *Result {
	prog := prof.NewProgram(cfg.Scale)
	eng := vm.NewEngine(prog)
	hier := cache.NewHierarchy(cfg.HierConfig(), nil)
	bp := cpu.NewBranchPred(cfg.CPU.BP)
	core := cpu.NewCore(cfg.CPU, hier, bp)

	res := &Result{Bench: prof.Name, Method: "SMARTS", Counters: eng.Counters}
	warming := &vm.Warming{Hier: hier, BP: bp}
	for m := 0; m < cfg.Regions; m++ {
		if cfg.Cancelled() {
			return res // partial; the caller discards it via its context error
		}
		warmStart := cfg.RegionStart(m) - cfg.DetailWarm
		// Functional warming across the whole gap: cache tags, replacement
		// state and predictor all stay warm. Cost scales with the gap.
		eng.Prop = true
		n := warmStart - prog.InstrIndex()
		eng.RunFuncWarm(n, true, warming)
		res.Regions = append(res.Regions, EvalRegion(cfg, eng, core, nil))
	}
	return res
}
