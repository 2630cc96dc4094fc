package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sampling"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// samplingBench is the paper's headline comparison: every benchmark under
// SMARTS, CoolSim and DeLorean, serially, as the sampling spec runs them.
type samplingBench struct {
	cfg   warm.Config
	profs []*workload.Profile
	chk   checker
	reps  int
	last  []sampling.BenchResult // the last repetition's results
	dg    digests
}

func newSampling(o options, _ *recorder) (bench, error) {
	cfg := warm.DefaultConfig()
	cfg.Scale = 256
	cfg.Regions = 1
	cfg.Seed = o.seed
	profs := []*workload.Profile{workload.Mcf(), workload.Omnetpp(), workload.Bwaves()}
	if o.toy {
		cfg.Scale = 1024
		cfg.Regions = 1
		profs = profs[2:]
	}
	return &samplingBench{
		cfg: cfg, profs: profs,
		// warm.Config.Seed feeds only CoolSim's RSW oracle.
		chk: checker{want: o.want, seed: o.seed, seeded: map[string]bool{spec.MethodCoolSim: true}},
	}, nil
}

// seeded returns the configuration the sampling spec runs a method with.
func (b *samplingBench) seeded(bench, method string) warm.Config {
	return spec.SeedConfig(b.cfg, bench, method, "")
}

func (b *samplingBench) rep(rec *recorder) (repOut, error) {
	id := fmt.Sprintf("rep-%d", b.reps)
	b.reps++
	t0 := time.Now()
	root := rec.begin("sampling.rep", -1, id, "", "")
	results := make([]sampling.BenchResult, len(b.profs))
	for i, p := range b.profs {
		br := sampling.BenchResult{Bench: p.Name}
		s := rec.begin("warm.smarts", root, id, p.Name, spec.KindSampling)
		br.SMARTS = warm.RunSMARTS(p, b.seeded(p.Name, spec.MethodSMARTS))
		rec.end(s)
		s = rec.begin("warm.coolsim", root, id, p.Name, spec.KindSampling)
		br.CoolSim = warm.RunCoolSim(p, b.seeded(p.Name, spec.MethodCoolSim))
		rec.end(s)
		br.DeLorean = runDeLorean(p, b.seeded(p.Name, spec.MethodDeLorean), rec, root, id)
		results[i] = br
	}
	rec.end(root)
	wall := time.Since(t0)

	dg, err := samplingDigests(results)
	if err != nil {
		return repOut{}, err
	}
	failed := b.chk.check(dg)
	for _, br := range results {
		for _, r := range []*warm.Result{br.SMARTS, br.CoolSim, &br.DeLorean.Result} {
			if len(r.Regions) != b.cfg.Regions {
				fmt.Fprintf(os.Stderr, "perfbench: %s/%s evaluated %d regions, want %d\n", r.Bench, r.Method, len(r.Regions), b.cfg.Regions)
				failed++
			}
		}
	}
	b.last, b.dg = results, dg
	return repOut{lat: []time.Duration{wall}, attempted: 1, failed: failed}, nil
}

// runDeLorean evaluates one benchmark with DeLorean. Untraced it is
// core.Run; traced it drives the same exported Scout → Explorer → Analyst
// loop RunSequential runs, with a span around every pass call.
func runDeLorean(p *workload.Profile, cfg warm.Config, rec *recorder, parent int, id string) *core.Result {
	if !rec.enabled() {
		return core.Run(p, cfg)
	}
	run := rec.begin("core.run", parent, id, p.Name, spec.KindSampling)
	s := rec.begin("core.new", run, id, p.Name, "")
	d := core.New(p, cfg)
	rec.end(s)
	for m := 0; m < cfg.Regions; m++ {
		s = rec.begin("core.scout", run, id, p.Name, "")
		msg := d.ScoutRegion(m)
		rec.end(s)
		for k := range cfg.ExplorerWindows {
			s = rec.begin(fmt.Sprintf("core.explorer-%d", k+1), run, id, p.Name, "")
			d.ExploreRegion(k, msg)
			rec.end(s)
		}
		s = rec.begin("core.analyst", run, id, p.Name, "")
		d.AnalyzeRegion(msg)
		rec.end(s)
	}
	// With no regions left, RunSequential only finalizes: it merges the
	// pass ledgers into the result exactly as a full run does.
	d.Cfg.Regions = 0
	res := d.RunSequential()
	rec.end(run)
	return res
}

// evalOut is the part of one evaluation the digests cover: the detailed
// regions and the event ledger.
type evalOut struct {
	Bench    string
	Regions  []warm.RegionResult
	Counters *stats.Counters
}

// samplingDigests hashes each method's regions and counter ledgers over
// all benchmarks.
func samplingDigests(results []sampling.BenchResult) (digests, error) {
	per := map[string][]evalOut{}
	for _, br := range results {
		per[spec.MethodSMARTS] = append(per[spec.MethodSMARTS], evalOut{br.Bench, br.SMARTS.Regions, br.SMARTS.Counters})
		per[spec.MethodCoolSim] = append(per[spec.MethodCoolSim], evalOut{br.Bench, br.CoolSim.Regions, br.CoolSim.Counters})
		per[spec.MethodDeLorean] = append(per[spec.MethodDeLorean], evalOut{br.Bench, br.DeLorean.Regions, br.DeLorean.Counters})
	}
	dg := digests{}
	for method, v := range per {
		d, err := digest(v)
		if err != nil {
			return nil, err
		}
		dg[method] = d
	}
	return dg, nil
}

func (b *samplingBench) digests() digests { return b.dg }

// passes are DeLorean's passes in pipeline order, as named in
// core.Result.PassCounters and in the spans.
var passes = []string{"scout", "explorer-1", "explorer-2", "explorer-3", "explorer-4", "analyst"}

func (b *samplingBench) layers(m metrics, spans []span, tr tracedReps, w io.Writer) []*layer {
	ls := layers(spans, selfTimes(spans))
	selfPct(m, ls, tr.capacity)
	perRep := 1 / float64(tr.reps)
	var delHost time.Duration
	host := map[string]time.Duration{}
	for _, l := range ls {
		host[l.Name] = l.Self
		if l.Name == "core.run" {
			for _, d := range l.Durs {
				delHost += d
			}
		}
	}

	// Simulated time and event counts repeat exactly (the digests check
	// it), so the last repetition stands for all of them.
	cfg := b.cfg
	sim := map[string]float64{}
	vmInstr := map[string]float64{}
	var triggers, falsePos, keys, resolved, unresolved, engaged, delVFF float64
	var speedups, cpiErrs []float64
	for _, br := range b.last {
		for _, pass := range passes {
			if c := br.DeLorean.PassCounters[pass]; c != nil {
				sim[pass] += sampling.PaperSeconds(cfg, c)
			}
		}
		sim["smarts"] += sampling.PaperSeconds(cfg, br.SMARTS.Counters)
		sim["coolsim"] += sampling.PaperSeconds(cfg, br.CoolSim.Counters)
		for _, c := range []*stats.Counters{br.SMARTS.Counters, br.CoolSim.Counters, br.DeLorean.Counters} {
			for _, prefix := range []string{"win/", "fix/"} {
				vmInstr["vff"] += c.Get(prefix + vm.KindVFF)
				vmInstr["func"] += c.Get(prefix + vm.KindFunc)
				vmInstr["funccache"] += c.Get(prefix + vm.KindFuncCache)
				vmInstr["vdp"] += c.Get(prefix + vm.KindVDP)
				vmInstr["detail"] += c.Get(prefix + vm.KindDetail)
				triggers += c.Get(prefix + vm.KindTrigger)
				falsePos += c.Get(prefix + vm.KindTriggerFP)
			}
		}
		dc := br.DeLorean.Counters
		delVFF += dc.Get("win/"+vm.KindVFF) + dc.Get("fix/"+vm.KindVFF)
		keys += dc.Get("fix/keys_total")
		unresolved += float64(br.DeLorean.KeysPerExplorer[0])
		for k := 1; k < len(br.DeLorean.KeysPerExplorer); k++ {
			resolved += float64(br.DeLorean.KeysPerExplorer[k])
		}
		engaged += br.DeLorean.AvgExplorers
		sp := sampling.BenchSpeeds(cfg, br)
		speedups = append(speedups, sp.DeLorean/sp.SMARTS)
		cpiErrs = append(cpiErrs, sampling.CPIError(br.SMARTS.CPI(), br.DeLorean.CPI()))
	}
	for _, pass := range passes {
		m.set("core."+pass+".sim_s", sim[pass], "sim_s")
	}
	m.set("warm.smarts.sim_s", sim["smarts"], "sim_s")
	m.set("warm.coolsim.sim_s", sim["coolsim"], "sim_s")
	for mode, n := range vmInstr {
		m.set("vm."+mode+"_minstr", n/1e6, "Minstr")
	}
	m.set("vm.triggers", triggers, "count")
	if triggers > 0 {
		m.set("vm.trigger_useful_frac", 1-falsePos/triggers, "frac")
	}
	m.set("core.keys", keys, "count")
	resolvedFrac := 1.0 // no keys: nothing left unresolved
	if resolved+unresolved > 0 {
		resolvedFrac = resolved / (resolved + unresolved)
	}
	m.set("core.keys_resolved_frac", resolvedFrac, "frac")
	m.set("core.explorers_engaged", engaged/float64(len(b.last)), "count")
	m.set("sampling.sim_speedup_vs_smarts", stats.GeoMean(speedups), "x")
	m.set("sampling.cpi_err_pct", 100*stats.Mean(cpiErrs), "%")

	skip := skipProbe(b.profs, cfg.Scale, cfg.Gap())
	m.set("workload.skip_ns_per_instr", skip, "ns/instr")
	delRep := delHost.Seconds() * perRep
	if delRep > 0 {
		m.set("core.vff_share_est_pct", 100*delVFF*skip/1e9/delRep, "%")
	}

	// Host time next to simulated time for every pass: which pass bounds
	// the pipeline in the paper's cost model, and which on this host.
	fmt.Fprintf(w, "DeLorean per repetition (%d benchmarks): host s from the spans, sim s at paper scale (sampling.PaperSeconds)\n", len(b.last))
	fmt.Fprintf(w, "%-12s %10s %8s %12s %8s\n", "pass", "host s", "host %", "sim s", "sim %")
	var hostSum, simSum float64
	for _, pass := range passes {
		hostSum += host["core."+pass].Seconds() * perRep
		simSum += sim[pass]
	}
	for _, pass := range passes {
		h := host["core."+pass].Seconds() * perRep
		fmt.Fprintf(w, "%-12s %10.4f %8.2f %12.4f %8.2f\n", pass, h, 100*h/hostSum, sim[pass], 100*sim[pass]/simSum)
	}
	fmt.Fprintf(w, "fast-forwarded %.1f M instructions per repetition at %.2f ns/instr ≈ %.1f %% of DeLorean's %.3f host s\n",
		delVFF/1e6, skip, m["core.vff_share_est_pct"].Value, delRep)
	var reps time.Duration
	for _, s := range spans {
		if s.Parent < 0 {
			reps += s.dur()
		}
	}
	m.set("trace.reconcile_pct", pct(reps, tr.wall), "%")
	fmt.Fprintf(w, "reconcile: repetition spans %.4f s vs measured wall %.4f s (%.2f %%)\n", reps.Seconds(), tr.wall.Seconds(), pct(reps, tr.wall))
	return ls
}

// skipProbe times workload.Program.Skip over one gap of each profile and
// returns the mean host ns per skipped instruction.
func skipProbe(profs []*workload.Profile, scale, gap uint64) float64 {
	var total time.Duration
	for _, p := range profs {
		prog := p.NewProgram(scale)
		t0 := time.Now()
		prog.Skip(gap)
		total += time.Since(t0)
	}
	return float64(total.Nanoseconds()) / float64(gap*uint64(len(profs)))
}

func (b *samplingBench) close() {}
