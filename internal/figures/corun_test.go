package figures

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/multiprog"
	"repro/internal/runner"
	"repro/internal/warm"
	"repro/internal/workload"
)

// tinyCoRunScenarios: fast co-run mixes over small synthetic profiles.
func tinyCoRunScenarios() []CoRunScenario {
	mk := func(name string, seed uint64, hotKiB, bigKiB uint64) *workload.Profile {
		return &workload.Profile{
			Name: name, MemRatio: 0.35, BranchRatio: 0.1, FPFrac: 0.1,
			LoopDuty: 16, RandomBranchFrac: 0.05, ILP: 4, CodeKiB: 8, Seed: seed,
			Streams: []workload.StreamSpec{
				{Kind: workload.Rand, Weight: 0.5, PaperBytes: hotKiB << 10, PCs: 8, WriteFrac: 0.3, Burst: 2},
				{Kind: workload.Rand, Weight: 0.5, PaperBytes: bigKiB << 10, PCs: 8, WriteFrac: 0.2},
			},
		}
	}
	a := mk("co-a", 41, 64, 768)
	b := mk("co-b", 42, 32, 1024)
	c := mk("co-c", 43, 96, 512)
	return []CoRunScenario{
		{Name: "a+b", Apps: []*workload.Profile{a, b}},
		{Name: "a+c", Apps: []*workload.Profile{a, c}},
	}
}

func tinyCoRunBase() warm.Config {
	cfg := warm.DefaultConfig()
	cfg.Scale = 4
	return cfg
}

// TestCoRunMatrixAndRender: the matrix must produce one cell per (scenario,
// size) with one comparison row per app, and the rendering must contain
// every scenario and app.
func TestCoRunMatrixAndRender(t *testing.T) {
	scenarios := tinyCoRunScenarios()
	sizes := []uint64{256 << 10}
	cells := CoRunMatrix(runner.New(0), scenarios, sizes, tinyCoRunBase())
	if len(cells) != len(scenarios)*len(sizes) {
		t.Fatalf("cell count = %d, want %d", len(cells), len(scenarios)*len(sizes))
	}
	for i, c := range cells {
		if len(c.Apps) != len(scenarios[i%len(scenarios)].Apps) {
			t.Errorf("cell %d: app count %d, want %d", i, len(c.Apps), len(scenarios[i%len(scenarios)].Apps))
		}
		for _, a := range c.Apps {
			if a.SimCPI <= 0 || a.PredCPI <= 0 {
				t.Errorf("cell %d app %s: non-positive CPI (sim %f, pred %f)", i, a.Name, a.SimCPI, a.PredCPI)
			}
			if a.SimDilation < 1 {
				t.Errorf("cell %d app %s: dilation %f < 1", i, a.Name, a.SimDilation)
			}
		}
	}
	body := RenderCoRun(cells)
	for _, want := range []string{"a+b", "a+c", "co-a", "co-b", "co-c", "mean prediction error"} {
		if !strings.Contains(body, want) {
			t.Errorf("co-run table missing %q:\n%s", want, body)
		}
	}
}

// TestCoRunMatrixDeterministicAcrossWorkers: the co-sim satellite
// requirement — the same scenario matrix must produce deep-equal results
// for any runner worker count.
func TestCoRunMatrixDeterministicAcrossWorkers(t *testing.T) {
	scenarios := tinyCoRunScenarios()
	sizes := []uint64{128 << 10, 512 << 10}
	base := tinyCoRunBase()
	serial := CoRunMatrix(runner.New(1), scenarios, sizes, base)
	wide := CoRunMatrix(runner.New(8), scenarios, sizes, base)
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("co-run matrix depends on worker count:\n1 worker: %+v\n8 workers: %+v", serial, wide)
	}
}

// coRunOracle computes one matrix cell straight from multiprog, with no
// spec, runner or checkpoint: each app's solo profile at the paper-default
// LLC (the size spec.CoRunProfileParamsFor pins), its calibration at the
// cell's size, the StatCC prediction, and a co-run simulated straight
// through, warm-up and all.
func coRunOracle(sc CoRunScenario, size uint64, base warm.Config) CoRunCell {
	profCfg := multiprog.CoSimFromWarm(base, warm.DefaultConfig().LLCPaperBytes)
	cfg := multiprog.CoSimFromWarm(base, size)
	cals := make([]multiprog.SoloCalibration, len(sc.Apps))
	for i, app := range sc.Apps {
		cals[i] = multiprog.ProfileSolo(app, profCfg).Calibrate(cfg)
	}
	sim := multiprog.NewCoSim(sc.Apps, cfg).Run()
	return CoRunCell{
		Scenario:      sc.Name,
		LLCPaperBytes: size,
		Apps:          multiprog.BuildComparison(cals, sim, multiprog.Predict(cals, cfg)),
	}
}

// TestCoRunMatrixForkedMatchesStraight: the golden-figure guarantee of the
// checkpoint tentpole at the matrix level — the spec path (each simulation
// cell forking its mix's warmed checkpoint, calibrations sharing nested
// profile specs) must produce cells deep-equal to the straight-through
// multiprog oracle, so no rendered figure can move.
func TestCoRunMatrixForkedMatchesStraight(t *testing.T) {
	scenarios := tinyCoRunScenarios()
	sizes := []uint64{128 << 10, 512 << 10}
	base := tinyCoRunBase()
	var straight []CoRunCell
	for _, size := range sizes {
		for _, sc := range scenarios {
			straight = append(straight, coRunOracle(sc, size, base))
		}
	}
	forked := CoRunMatrix(runner.New(0), scenarios, sizes, base)
	if !reflect.DeepEqual(forked, straight) {
		t.Errorf("forked matrix diverged from straight oracle:\nforked:   %+v\nstraight: %+v", forked, straight)
	}
}

// TestCoRunCalibrationShared: an app appearing in two mixes must be
// profiled once (size-independent pass) and calibrated once per size —
// the job-list dedup and the runner cache together bound the work.
func TestCoRunCalibrationShared(t *testing.T) {
	eng := runner.New(0)
	CoRunMatrix(eng, tinyCoRunScenarios(), []uint64{256 << 10}, tinyCoRunBase())
	hits, misses := eng.CacheStats()
	// 3 unique apps: 3 profile jobs + 3 per-size calibrations + 2 co-sims,
	// each co-sim forking its mix's nested corun-warm checkpoint (2 more);
	// co-a appears in both mixes but must not run twice anywhere.
	if misses != 10 {
		t.Errorf("executed jobs = %d, want 10 (3 profiles + 3 calibrations + 2 warm checkpoints + 2 co-sims)", misses)
	}
	_ = hits
}
