package multiprog

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/workload"
)

// referenceCoRun replays CoSim.Run's exact schedule — instruction-quota
// warm-up, alignment to the slowest clock, common-horizon measurement,
// min-cycle selection with ties by index — through the per-instruction
// cpu.Core.RunReference oracle over a manually built shared hierarchy. It
// is the engine CoSim had before quanta were fed to the chunked
// cpu.Core.Run, kept here as the test oracle for the whole co-run path
// (engine + scheduler).
func referenceCoRun(profs []*workload.Profile, cfg CoSimConfig) []cpu.Stats {
	hiers := cache.NewSharedHierarchy(cfg.HierConfig(), len(profs))
	type app struct {
		prog   *workload.Program
		core   *cpu.Core
		cycles uint64
		meas   cpu.Stats
	}
	apps := make([]*app, len(profs))
	for i, p := range profs {
		apps[i] = &app{prog: p.NewProgram(cfg.Scale), core: cpu.NewCore(cfg.CPU, hiers[i], nil)}
	}
	q := cfg.quantum()

	next := func(eligible func(i int) bool) int {
		best := -1
		for i, a := range apps {
			if !eligible(i) {
				continue
			}
			if best < 0 || a.cycles < apps[best].cycles {
				best = i
			}
		}
		return best
	}

	if cfg.WarmupInstr > 0 {
		warmed := make([]uint64, len(apps))
		for {
			best := next(func(i int) bool { return warmed[i] < cfg.WarmupInstr })
			if best < 0 {
				break
			}
			n := q
			if rem := cfg.WarmupInstr - warmed[best]; rem < n {
				n = rem
			}
			a := apps[best]
			a.cycles += a.core.RunReference(a.prog, n).Cycles
			warmed[best] += n
		}
	}
	var start uint64
	for _, a := range apps {
		if a.cycles > start {
			start = a.cycles
		}
	}
	for {
		best := next(func(i int) bool { return apps[i].cycles < start })
		if best < 0 {
			break
		}
		a := apps[best]
		a.cycles += a.core.RunReference(a.prog, q).Cycles
	}
	horizon := start + cfg.MeasureCycles
	for {
		best := next(func(i int) bool { return apps[i].cycles < horizon })
		if best < 0 {
			break
		}
		a := apps[best]
		st := a.core.RunReference(a.prog, q)
		a.cycles += st.Cycles
		a.meas.Add(st)
	}
	out := make([]cpu.Stats, len(apps))
	for i, a := range apps {
		out[i] = a.meas
	}
	return out
}

// TestCoSimBatchedMatchesPerInstrOracle: the batched co-run engine must be
// bit-identical to the per-instruction reference across every validation
// mix (the "co-run mixes" half of the engine's oracle gate; the
// per-profile half lives in cpu.TestRunBatchMatchesRun).
func TestCoSimBatchedMatchesPerInstrOracle(t *testing.T) {
	for mixName, profs := range validationMixes() {
		cfg := coTestConfig(64)
		got := SimulateCoRun(profs, cfg)
		want := referenceCoRun(profs, cfg)
		for i, a := range got.Apps {
			if a.Stats != want[i] {
				t.Errorf("%s app %d (%s): batched engine diverges from per-instruction oracle:\nbatched %+v\noracle  %+v",
					mixName, i, a.Name, a.Stats, want[i])
			}
		}
	}
}

// TestCoSimEmptyMix: a zero-app co-sim returns an empty result rather
// than panicking in the inline min-cycle scan (parity with the old
// closure-driven selector, which returned -1 on an empty mix).
func TestCoSimEmptyMix(t *testing.T) {
	res := SimulateCoRun(nil, coTestConfig(64))
	if len(res.Apps) != 0 {
		t.Errorf("empty mix produced %d apps", len(res.Apps))
	}
}

// TestCoSimMeasuredWindowAllocs pins the co-sim quantum loop at zero
// steady-state allocations: once a CoSim is constructed and its scratch
// (MSHR ring, in-flight table) is sized, extending the measured window
// allocates nothing — Run's decode chunk lives on its stack.
func TestCoSimMeasuredWindowAllocs(t *testing.T) {
	profs := validationMixes()["triple"]
	cfg := coTestConfig(64)
	cs := NewCoSim(profs, cfg)
	q := cfg.quantum()
	cs.warmup(cfg.WarmupInstr, q)
	var horizon uint64
	for _, a := range cs.apps {
		if a.cycles > horizon {
			horizon = a.cycles
		}
	}
	cs.runWindow(horizon, q, false)
	allocs := testing.AllocsPerRun(3, func() {
		horizon += 50_000
		cs.runWindow(horizon, q, true)
	})
	if allocs != 0 {
		t.Errorf("measured co-sim window allocated %.2f times per 50k-cycle extension, want 0", allocs)
	}
}
