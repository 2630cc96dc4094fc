package sampling

import (
	"reflect"
	"testing"

	"repro/internal/runner"
	"repro/internal/warm"
	"repro/internal/workload"
)

func testCfg() warm.Config {
	cfg := warm.DefaultConfig()
	cfg.Regions = 2
	cfg.PaperGap = 800_000
	cfg.Scale = 1
	cfg.LLCPaperBytes = 128 * 1024
	cfg.VicinityEvery = 20_000
	// The default RSW schedule intervals (40k/20k/10k memory instructions)
	// are tuned for 1B-instruction gaps; rescale them to this toy gap so
	// CoolSim keeps its paper-proportioned sample volume.
	cfg.RSWSchedule = []warm.RSWSegment{{Frac: 0.75, Interval: 500}, {Frac: 0.20, Interval: 250}, {Frac: 0.05, Interval: 125}}
	return cfg
}

func testProfs() []*workload.Profile {
	return []*workload.Profile{
		{
			Name: "alpha", MemRatio: 0.4, BranchRatio: 0.1, LoopDuty: 16,
			RandomBranchFrac: 0.05, ILP: 4, CodeKiB: 8, Seed: 41,
			Streams: []workload.StreamSpec{
				{Kind: workload.Rand, Weight: 0.6, PaperBytes: 4 * 1024, PCs: 8, Burst: 4},
				{Kind: workload.Seq, Weight: 0.3, PaperBytes: 512 * 1024, PCs: 4, Burst: 4},
				{Kind: workload.Rand, Weight: 0.1, PaperBytes: 4 * 1024 * 1024, PCs: 4, Burst: 4},
			},
		},
		{
			Name: "beta", MemRatio: 0.35, BranchRatio: 0.12, LoopDuty: 8,
			RandomBranchFrac: 0.15, ILP: 3, CodeKiB: 16, Seed: 42,
			Streams: []workload.StreamSpec{
				{Kind: workload.Rand, Weight: 0.7, PaperBytes: 8 * 1024, PCs: 8, Burst: 4},
				{Kind: workload.Rand, Weight: 0.3, PaperBytes: 8 * 1024 * 1024, PCs: 8, Burst: 4},
			},
		},
	}
}

func TestRunAllAndSummarize(t *testing.T) {
	cfg := testCfg()
	cmp := RunAll(testProfs(), cfg, Options{})
	if len(cmp.Benches) != 2 {
		t.Fatalf("benches = %d", len(cmp.Benches))
	}
	for _, b := range cmp.Benches {
		if b.SMARTS == nil || b.CoolSim == nil || b.DeLorean == nil {
			t.Fatalf("%s: missing results", b.Bench)
		}
		sp := BenchSpeeds(cfg, b)
		if sp.SMARTS <= 0 || sp.CoolSim <= 0 || sp.DeLorean <= 0 {
			t.Errorf("%s: non-positive speeds %+v", b.Bench, sp)
		}
		// The methodology ordering the paper reports: DeLorean fastest,
		// SMARTS slowest.
		if sp.DeLorean < sp.SMARTS {
			t.Errorf("%s: DeLorean (%f MIPS) slower than SMARTS (%f)", b.Bench, sp.DeLorean, sp.SMARTS)
		}
		rc := BenchReuseCounts(cfg, b)
		if rc.CoolSim <= 0 {
			t.Errorf("%s: CoolSim reuse count = %f", b.Bench, rc.CoolSim)
		}
		if rc.DeLorean > rc.CoolSim {
			t.Errorf("%s: DSW collected more reuses (%f) than RSW (%f)", b.Bench, rc.DeLorean, rc.CoolSim)
		}
	}
	s := Summarize(cmp)
	if s.AvgSpeedupVsSMARTS <= 1 {
		t.Errorf("speedup vs SMARTS = %f, want > 1", s.AvgSpeedupVsSMARTS)
	}
	if s.ReuseReduction <= 1 {
		t.Errorf("reuse reduction = %f, want > 1", s.ReuseReduction)
	}
	t.Logf("summary: %+v", s)
}

func TestRunAllSkips(t *testing.T) {
	cfg := testCfg()
	cmp := RunAll(testProfs()[:1], cfg, Options{SkipSMARTS: true, SkipCoolSim: true})
	b := cmp.Benches[0]
	if b.SMARTS != nil || b.CoolSim != nil {
		t.Error("skipped methods should be nil")
	}
	if b.DeLorean == nil {
		t.Error("DeLorean missing")
	}
}

// TestRunAllDeterministicAcrossParallelism: a serial run and a fully
// parallel run of the same matrix must produce bit-identical results —
// every region stat and every counter, not just the headline CPIs. This
// is the runner's seeding guarantee surfacing at the sampling layer. The
// parallel bound is fixed > 1 so the test stays meaningful on single-CPU
// machines.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	cfg := testCfg()
	a := RunAll(testProfs(), cfg, Options{Eng: runner.New(1)})
	b := RunAll(testProfs(), cfg, Options{Eng: runner.New(8)})
	if !reflect.DeepEqual(a, b) {
		t.Error("Workers=1 and Workers=8 produced different results")
	}
}

// TestDeLoreanSpeedIsSlowestPass: BenchSpeeds charges DeLorean the
// slowest pass of its pipeline (§3.2), which is never more than the merged
// ledger of all passes run back to back.
func TestDeLoreanSpeedIsSlowestPass(t *testing.T) {
	cfg := testCfg()
	cmp := RunAll(testProfs(), cfg, Options{SkipSMARTS: true, SkipCoolSim: true})
	for _, b := range cmp.Benches {
		pipelined := BenchSpeeds(cfg, b).DeLorean
		sequential := PaperInstr(cfg) / PaperSeconds(cfg, b.DeLorean.Counters) / 1e6
		if pipelined <= 0 || sequential <= 0 {
			t.Fatalf("%s: ledger produced no time (pipelined %f, sequential %f MIPS)", b.Bench, pipelined, sequential)
		}
		if pipelined < sequential*(1-1e-9) {
			t.Errorf("%s: slowest pass is slower than all passes summed: %f MIPS pipelined, %f sequential",
				b.Bench, pipelined, sequential)
		}
	}
}

func TestPaperScaleExtrapolation(t *testing.T) {
	cfg := testCfg()
	cfg.Scale = 4
	cmp := RunAll(testProfs()[:1], cfg, Options{SkipCoolSim: true, SkipDeLorean: true})
	c := cmp.Benches[0].SMARTS.Counters
	raw := cfg.Cost.Seconds(c)
	paper := PaperSeconds(cfg, c)
	if paper <= raw {
		t.Errorf("paper-scale seconds (%f) should exceed raw (%f)", paper, raw)
	}
	// Fixed detail cost must not be scaled: paper < raw * Scale.
	if paper >= raw*float64(cfg.Scale) {
		t.Errorf("paper-scale seconds (%f) should be < raw*scale (%f)", paper, raw*float64(cfg.Scale))
	}
	if PaperInstr(cfg) != float64(cfg.TotalInstr())*4 {
		t.Error("PaperInstr wrong")
	}
}

func TestCPIError(t *testing.T) {
	if e := CPIError(2.0, 2.2); e < 0.099 || e > 0.101 {
		t.Errorf("CPIError = %f", e)
	}
	if e := CPIError(2.0, 1.8); e < 0.099 || e > 0.101 {
		t.Errorf("CPIError symmetric = %f", e)
	}
	if CPIError(0, 5) != 0 {
		t.Error("zero reference should give 0")
	}
}
