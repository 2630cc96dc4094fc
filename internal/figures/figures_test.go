package figures

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/sampling"
	"repro/internal/warm"
	"repro/internal/workload"
)

func tinyOptions() Options {
	cfg := warm.DefaultConfig()
	cfg.Regions = 2
	cfg.PaperGap = 600_000
	cfg.Scale = 1
	cfg.VicinityEvery = 20_000
	cfg.RSWSchedule = []warm.RSWSegment{{Frac: 0.75, Interval: 500}, {Frac: 0.25, Interval: 250}}
	return Options{
		Cfg:   cfg,
		Short: true,
		Benchmarks: []*workload.Profile{
			{
				Name: "tiny-a", MemRatio: 0.4, BranchRatio: 0.1, LoopDuty: 16,
				RandomBranchFrac: 0.05, ILP: 4, CodeKiB: 8, Seed: 61,
				Streams: []workload.StreamSpec{
					{Kind: workload.Rand, Weight: 0.6, PaperBytes: 4 * 1024, PCs: 8, Burst: 4},
					{Kind: workload.Seq, Weight: 0.4, PaperBytes: 512 * 1024, PCs: 4, Burst: 4},
				},
			},
			{
				Name: "tiny-b", MemRatio: 0.35, BranchRatio: 0.12, LoopDuty: 8,
				RandomBranchFrac: 0.1, ILP: 3, CodeKiB: 8, Seed: 62,
				Streams: []workload.StreamSpec{
					{Kind: workload.Rand, Weight: 0.7, PaperBytes: 8 * 1024, PCs: 8, Burst: 4},
					{Kind: workload.Seq, Weight: 0.3, PaperBytes: 2 * 1024 * 1024, PCs: 8, Burst: 4},
				},
			},
		},
	}
}

func TestTable1(t *testing.T) {
	s := Table1(warm.DefaultConfig())
	for _, want := range []string{"ROB", "192", "Branch predictor", "MSHRs"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestComparisonFigures(t *testing.T) {
	opt := tinyOptions()
	cmp := sampling.RunAll(opt.Benchmarks, opt.Cfg, sampling.Options{})
	for name, body := range map[string]string{
		"fig5":     Fig5(cmp),
		"fig6":     Fig6(cmp),
		"fig7":     Fig7(cmp),
		"fig8":     Fig8(cmp),
		"fig9":     FigCPI(cmp, "Figure 9", 8, "9.1%", "3.5%"),
		"headline": Headline(cmp),
	} {
		if !strings.Contains(body, "tiny-a") && name != "headline" {
			t.Errorf("%s missing benchmark row:\n%s", name, body)
		}
		if len(body) < 50 {
			t.Errorf("%s suspiciously short:\n%s", name, body)
		}
	}
	if !strings.Contains(Headline(cmp), "speedup vs SMARTS") {
		t.Error("headline missing speedup line")
	}
	// Measured and paper errors read in one order: CoolSim, then DeLorean.
	if body := FigCPI(cmp, "Figure 9", 8, "9.1%", "3.5%"); !regexp.MustCompile(
		`average CPI error: CoolSim [0-9.]+%, DeLorean [0-9.]+% \(paper: CoolSim 9\.1%, DeLorean 3\.5%\)`).MatchString(body) {
		t.Errorf("Figure 9 error line does not pair measured and paper values in one order:\n%s", body)
	}
}

func TestFig13and14Tiny(t *testing.T) {
	// Fig13and14 always uses the paper's three example benchmarks, so the
	// test shrinks the geometry instead: scale 64 with a short gap and the
	// reduced 4-point size sweep.
	cfg := warm.DefaultConfig()
	cfg.Regions = 2
	cfg.PaperGap = 8_000_000
	s := Fig13and14(Options{Cfg: cfg, Short: true})
	for _, want := range []string{"cactusADM", "leslie3d", "lbm", "amortization"} {
		if !strings.Contains(s, want) {
			t.Errorf("Fig13/14 missing %q", want)
		}
	}
}

// TestWorkingSetWithoutRefs pins the block cmd/dse prints without -ref:
// DeLorean columns and series only (no ref/SMARTS column, series or
// legend), the amortization line, and the same DeLorean cells as the
// block rendered with SMARTS references.
func TestWorkingSetWithoutRefs(t *testing.T) {
	cfg := warm.DefaultConfig()
	cfg.Regions = 2
	cfg.PaperGap = 8_000_000
	eng := runner.New(1)
	prof, sizes := workload.Lbm(), WSSizes(true)
	bare := eng.RunMatrix(WSJobs(prof, cfg, sizes, false, 2))
	if len(bare) != 1 {
		t.Fatalf("WSJobs without refs built %d jobs, want 1", len(bare))
	}
	got := WorkingSet(bare, cfg.Cost)
	lines := strings.Split(got, "\n")
	if h := strings.Fields(lines[1]); strings.Join(h, " ") != "LLC (paper MiB) DeLorean MPKI DeLorean CPI" {
		t.Errorf("header = %q, want LLC, DeLorean MPKI, DeLorean CPI", lines[1])
	}
	for _, bad := range []string{"ref", "SMARTS"} {
		if strings.Contains(got, bad) {
			t.Errorf("block without references mentions %q:\n%s", bad, got)
		}
	}
	if n := strings.Count(got, "* = DeLorean\n"); n != 2 || strings.Count(got, " = ") != 2 {
		t.Errorf("want one DeLorean series in each of the two plots:\n%s", got)
	}
	if !strings.Contains(got, "lbm amortization: ") {
		t.Errorf("amortization line missing:\n%s", got)
	}

	with := strings.Split(WorkingSet(eng.RunMatrix(WSJobs(prof, cfg, sizes, true, 2)), cfg.Cost), "\n")
	for i := range sizes {
		b, w := strings.Fields(lines[3+i]), strings.Fields(with[3+i])
		if b[1] != w[2] || b[2] != w[4] {
			t.Errorf("row %d: DeLorean cells %v without refs, %v with", i, b[1:], []string{w[2], w[4]})
		}
	}
}

func TestWSSizes(t *testing.T) {
	full := WSSizes(false)
	if len(full) != 10 || full[0] != 1<<20 || full[9] != 512<<20 {
		t.Errorf("full sweep wrong: %v", full)
	}
	short := WSSizes(true)
	if len(short) >= len(full) {
		t.Error("short sweep should be smaller")
	}
}

// TestParseOnly: -only keys are checked against the report's sections, so
// a typo fails instead of silently dropping a figure, and the opt-in
// ablation key is accepted.
func TestParseOnly(t *testing.T) {
	want, err := ParseOnly(" fig9, ablation ,,")
	if err != nil || len(want) != 2 || !want["fig9"] || !want["ablation"] {
		t.Errorf("ParseOnly(fig9,ablation) = %v, %v", want, err)
	}
	if want, err := ParseOnly(""); err != nil || len(want) != 0 {
		t.Errorf("ParseOnly(\"\") = %v, %v, want the default report", want, err)
	}
	_, err = ParseOnly("fig9,fgi10")
	if err == nil || !strings.Contains(err.Error(), `"fgi10"`) || !strings.Contains(err.Error(), "fig10") {
		t.Errorf("ParseOnly(fig9,fgi10) error = %v, want one naming the typo and the valid keys", err)
	}
}
