package figures

// The EXPERIMENTS.md report writer. cmd/figures is a thin front over
// WriteReport; the cache-persistence tests call it directly so "a warm
// store reproduces the report byte-identically with zero executions" is a
// tested property of this package, not a hope about the CLI.

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"time"

	"repro/internal/runner"
	"repro/internal/sampling"
)

// Sections lists the report section keys in render order.
func Sections() []string {
	return []string{"table1", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "corun", "headline"}
}

// ParseOnly parses a comma-separated section list into WriteReport's
// selection. Each key must be one of Sections() or "ablation", so a typo
// is an error naming the valid keys instead of a silently missing
// section. An empty list selects the default report.
func ParseOnly(list string) (map[string]bool, error) {
	valid := append(Sections(), "ablation")
	want := map[string]bool{}
	for _, k := range strings.Split(list, ",") {
		if k = strings.TrimSpace(k); k == "" {
			continue
		}
		if !slices.Contains(valid, k) {
			return nil, fmt.Errorf("unknown section %q (valid: %s)", k, strings.Join(valid, ","))
		}
		want[k] = true
	}
	return want, nil
}

// WriteReport renders the selected sections (nil/empty only = all except
// the ablations, which are opt-in like in the CLI) of the paper
// reproduction to w. Progress commentary goes to logw (nil = discarded);
// only w receives report bytes, so two runs over identical results —
// executed or decoded from a warm artifact store — produce identical
// output. All experiments run on opt's engine.
func WriteReport(w io.Writer, opt Options, only map[string]bool, logw io.Writer) {
	if logw == nil {
		logw = io.Discard
	}
	if opt.Eng == nil {
		opt.Eng = runner.New(0)
	}
	sel := func(k string) bool { return len(only) == 0 || only[k] }

	start := time.Now()
	section := func(title, body string) {
		fmt.Fprintf(w, "## %s\n\n```\n%s```\n\n", title, body)
		fmt.Fprintf(logw, "[%6.1fs] %s done\n", time.Since(start).Seconds(), title)
	}

	if len(only) == 0 {
		fmt.Fprintf(w, "# EXPERIMENTS — paper vs. measured\n\n")
		fmt.Fprintf(w, "Generated by `go run ./cmd/figures`%s on a %d-benchmark suite, scale 1/%d, %d regions.\n",
			map[bool]string{true: " -short", false: ""}[opt.Short],
			len(opt.Benchmarks), opt.Cfg.Scale, opt.Cfg.Regions)
		fmt.Fprintf(w, "All speeds are simulated-time (cost-model) figures extrapolated to paper scale; see DESIGN.md §5.\n\n")
	}

	if sel("table1") {
		section("Table 1 — simulated processor", Table1(opt.Cfg))
	}

	// The 8 MiB comparison feeds Figures 5-9 and the headline.
	var cmp8 *sampling.Comparison
	need8 := sel("fig5") || sel("fig6") || sel("fig7") || sel("fig8") ||
		sel("fig9") || sel("fig11") || sel("fig12") || sel("headline")
	if need8 {
		cmp8 = sampling.RunAll(opt.Benchmarks, opt.Cfg, sampling.Options{Eng: opt.Eng})
		fmt.Fprintf(logw, "[%6.1fs] 8 MiB comparison done\n", time.Since(start).Seconds())
	}
	if sel("fig5") {
		section("Figure 5 — normalized simulation speed", Fig5(cmp8))
	}
	if sel("fig6") {
		section("Figure 6 — collected reuse distances", Fig6(cmp8))
	}
	if sel("fig7") {
		section("Figure 7 — key reuses per Explorer", Fig7(cmp8))
	}
	if sel("fig8") {
		section("Figure 8 — average Explorers engaged", Fig8(cmp8))
	}
	if sel("fig9") {
		section("Figure 9 — CPI, 8 MiB LLC", FigCPI(cmp8, "Figure 9", 8, "9.1%", "3.5%"))
	}
	if sel("fig10") {
		cfg512 := opt.Cfg
		cfg512.LLCPaperBytes = 512 << 20
		cmp512 := sampling.RunAll(opt.Benchmarks, cfg512, sampling.Options{Eng: opt.Eng})
		section("Figure 10 — CPI, 512 MiB LLC", FigCPI(cmp512, "Figure 10", 512, "9.3%", "2.9%"))
	}
	if sel("fig11") {
		section("Figure 11 — vicinity density sensitivity", Fig11(opt, cmp8))
	}
	if sel("fig12") {
		section("Figure 12 — hardware prefetching", Fig12(opt, cmp8))
	}
	if sel("fig13") || sel("fig14") {
		section("Figures 13 & 14 — working-set curves and design-space exploration", Fig13and14(opt))
	}
	if sel("corun") {
		section("Co-run validation — simulated shared LLC vs StatCC (§4.2)", CoRun(opt))
	}
	if sel("headline") {
		section("Headline numbers (§6.1)", Headline(cmp8))
	}
	if only["ablation"] {
		section("Ablations — why each design choice matters", Ablations(opt))
	}
}
