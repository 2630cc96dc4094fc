package figures

// The co-run table (§4.2): simulated multi-core shared-LLC co-runs versus
// the StatCC prediction built from solo profiles. This is the repository's
// reference data for the paper's generality argument — the claim that
// sparse per-application reuse profiles predict shared-cache contention is
// checked against an actual interleaved simulation, not assumed.

import (
	"fmt"
	"strings"

	"repro/internal/multiprog"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/textplot"
	"repro/internal/warm"
	"repro/internal/workload"
)

// CoRunScenario is one named application mix sharing the LLC.
type CoRunScenario struct {
	Name string
	Apps []*workload.Profile
}

// CoRunMixes returns the default scenario set: a symmetric-ish pair of
// modest working sets, a streaming aggressor against a latency-sensitive
// victim, and a three-way mix.
func CoRunMixes(short bool) []CoRunScenario {
	mixes := []CoRunScenario{
		{Name: "omnetpp+hmmer", Apps: []*workload.Profile{workload.Omnetpp(), workload.Hmmer()}},
		{Name: "libquantum+astar", Apps: []*workload.Profile{workload.Libquantum(), workload.Astar()}},
		{Name: "omnetpp+astar+hmmer", Apps: []*workload.Profile{workload.Omnetpp(), workload.Astar(), workload.Hmmer()}},
	}
	if short {
		return mixes[:2]
	}
	return mixes
}

// CoRunSizes returns the paper-scale shared-LLC sizes of the matrix.
func CoRunSizes(short bool) []uint64 {
	if short {
		return []uint64{8 << 20}
	}
	return []uint64{4 << 20, 16 << 20}
}

// CoRunCell is one (scenario, LLC size) comparison.
type CoRunCell struct {
	Scenario      string
	LLCPaperBytes uint64
	Apps          []multiprog.CoRunApp
}

// CoRunMatrix drives the scenario × LLC-size matrix through the runner
// engine as one saturated job list: the size-independent solo profiles
// (one spec per unique app no matter how many mixes or sizes it appears
// in), the per-(mix, size) warm checkpoints, the per-(app, size)
// calibration completions and the per-(mix, size) co-run simulations all
// enter a single RunMatrix. Dependencies are resolved by the engine's
// single-flight spec cache, not by driver-level barriers: a calibration
// nests its app's profile spec and a simulation forks its cell's warm
// checkpoint, so whichever side reaches a shared spec first computes it
// and the other joins the in-flight result. Enqueueing the nested specs
// up front (profiles and warm-ups ahead of their consumers) keeps every
// worker busy from the first job — the old two-pass shape parked the
// whole pool at a barrier until the slowest profile finished. The StatCC
// fixed point is solved from the calibrations when the matrix lands.
// Results are deterministic for any engine worker count.
func CoRunMatrix(eng *runner.Engine, scenarios []CoRunScenario, llcPaperSizes []uint64, base warm.Config) []CoRunCell {
	refsOf := func(sc CoRunScenario) []spec.BenchRef {
		refs := make([]spec.BenchRef, len(sc.Apps))
		for i, app := range sc.Apps {
			refs[i] = spec.Ref(app)
		}
		return refs
	}

	// Size-independent solo profiles, enqueued first so profiling work
	// starts immediately; the calibrations' nested lookups join these
	// in-flight computations or hit the cache.
	seen := make(map[string]bool)
	var jobs []runner.Job
	for _, sc := range scenarios {
		for _, app := range sc.Apps {
			if seen[app.Name] {
				continue
			}
			seen[app.Name] = true
			jobs = append(jobs, spec.Job(spec.CoRunProfileParamsFor(spec.Ref(app), base)))
		}
	}

	// Warm checkpoints, one per (mix, size) — a checkpoint's identity
	// includes the LLC size (the warmed cache state depends on it), so
	// every size warms its own state and every cell forks the checkpoint
	// of its own size. Enqueued as top-level jobs so all warm-ups proceed
	// in parallel with profiling instead of on demand inside each
	// simulation cell.
	for _, size := range llcPaperSizes {
		for _, sc := range scenarios {
			cfg := base
			cfg.LLCPaperBytes = size
			jobs = append(jobs, spec.Job(spec.CoRunWarmParams{Mix: sc.Name, Apps: refsOf(sc), Cfg: cfg}))
		}
	}

	// Target-size calibrations and co-run simulations.
	type calKey struct {
		app  string
		size uint64
	}
	calIdx := make(map[calKey]int)
	for _, size := range llcPaperSizes {
		for _, sc := range scenarios {
			for _, app := range sc.Apps {
				k := calKey{app.Name, size}
				if _, dup := calIdx[k]; dup {
					continue
				}
				cfg := base
				cfg.LLCPaperBytes = size
				calIdx[k] = len(jobs)
				jobs = append(jobs, spec.Job(spec.CoRunCalParams{Bench: spec.Ref(app), Cfg: cfg}))
			}
		}
	}
	simBase := len(jobs)
	for _, size := range llcPaperSizes {
		for _, sc := range scenarios {
			cfg := base
			cfg.LLCPaperBytes = size
			jobs = append(jobs, spec.Job(spec.CoRunSimParams{Mix: sc.Name, Apps: refsOf(sc), Cfg: cfg}))
		}
	}
	results := eng.RunMatrix(jobs)

	var out []CoRunCell
	i := simBase
	for _, size := range llcPaperSizes {
		for _, sc := range scenarios {
			sim := results[i].(*multiprog.CoRunResult)
			i++
			cals := make([]multiprog.SoloCalibration, len(sc.Apps))
			for j, app := range sc.Apps {
				cals[j] = results[calIdx[calKey{app.Name, size}]].(multiprog.SoloCalibration)
			}
			cs := multiprog.CoSimFromWarm(base, size)
			pred := multiprog.Predict(cals, cs)
			out = append(out, CoRunCell{
				Scenario:      sc.Name,
				LLCPaperBytes: size,
				Apps:          multiprog.BuildComparison(cals, sim, pred),
			})
		}
	}
	return out
}

// RenderCoRun renders the comparison cells as the co-run table.
func RenderCoRun(cells []CoRunCell) string {
	var b strings.Builder
	b.WriteString("Co-run validation (§4.2): simulated shared-LLC co-runs vs the StatCC\n")
	b.WriteString("prediction solved from solo profiles. err(CPI) is relative, err(miss) absolute.\n\n")
	var cpiErrs, missErrs []float64
	for _, c := range cells {
		tbl := textplot.NewTable(
			fmt.Sprintf("%s @ %d MiB shared LLC (paper scale)", c.Scenario, c.LLCPaperBytes>>20),
			"app", "solo CPI", "sim CPI", "pred CPI", "err", "sim miss", "pred miss", "err", "dil sim", "dil pred")
		for _, a := range c.Apps {
			tbl.AddRowf("%s", a.Name, "%.3f", a.SoloCPI, "%.3f", a.SimCPI, "%.3f", a.PredCPI,
				"%.1f%%", 100*a.CPIError(), "%.4f", a.SimMissRatio, "%.4f", a.PredMissRatio,
				"%.4f", a.MissError(), "%.2f", a.SimDilation, "%.2f", a.PredDilation)
			cpiErrs = append(cpiErrs, a.CPIError())
			missErrs = append(missErrs, a.MissError())
		}
		b.WriteString(tbl.String())
	}
	fmt.Fprintf(&b, "mean prediction error over %d app cells: CPI %.1f%%, miss ratio %.4f (absolute)\n",
		len(cpiErrs), 100*stats.Mean(cpiErrs), stats.Mean(missErrs))
	b.WriteString("separately collected profiles predict shared-cache contention (§4.2).\n")
	return b.String()
}

// CoRun runs the default co-run matrix and renders the table.
func CoRun(opt Options) string {
	cells := CoRunMatrix(opt.engine(), CoRunMixes(opt.Short), CoRunSizes(opt.Short), opt.Cfg)
	return RenderCoRun(cells)
}
