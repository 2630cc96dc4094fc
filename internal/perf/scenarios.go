package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/figures"
	"repro/internal/lab"
	"repro/internal/mem"
	"repro/internal/multiprog"
	"repro/internal/reuse"
	"repro/internal/runner"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/warm"
	"repro/internal/workload"
)

// Scenarios returns the standard suite in reporting order.
func Scenarios() []Scenario {
	return []Scenario{SoloPipeline(), CorunCell(), CorunCellForked(), CorunMatrix(), DSEFanout(), KeyReuse(), StoreRoundTrip(), LabdLoad(), FleetLoad()}
}

// Named returns the scenarios matching the given names (nil names = all).
func Named(names []string) []Scenario {
	all := Scenarios()
	if len(names) == 0 {
		return all
	}
	var out []Scenario
	for _, n := range names {
		for _, s := range all {
			if s.Name == n {
				out = append(out, s)
			}
		}
	}
	return out
}

// SoloPipeline is the core hot path of every methodology: deterministic
// trace generation feeding the three-level hierarchy and an exact reuse
// monitor whose distances accumulate into a histogram — the ProfileSolo /
// Explorer-1 inner loop, run through the mem.Batch pipeline. Steady
// state: the batch, the result slices and the monitor's flat table are all
// reused across repetitions, so this scenario is the allocs/access
// headline (BENCH_baseline.json holds the pre-batching numbers for the
// same simulated work).
func SoloPipeline() Scenario {
	return Scenario{
		Name: "solo-pipeline",
		Desc: "batched trace gen -> hierarchy -> exact reuse monitor -> histogram",
		Setup: func(quick bool) (func() uint64, func()) {
			window := uint64(4 << 20)
			if quick {
				window = 1 << 20
			}
			const chunk = 8192
			prog := workload.GemsFDTD().NewProgram(64)
			hier := cache.NewHierarchy(cache.DefaultHierarchy(8<<20, 64), nil)
			mon := reuse.NewExactMonitor()
			hist := &stats.RDHist{}
			batch := make(mem.Batch, 0, chunk)
			results := make([]cache.DataResult, 0, chunk)
			return func() uint64 {
				start := prog.MemIndex()
				for done := uint64(0); done < window; done += chunk {
					batch.Reset()
					prog.FillBatch(chunk, &batch, nil)
					results = hier.AccessBatch(batch, results[:0])
					mon.ObserveHist(batch, hist, 0)
				}
				return prog.MemIndex() - start
			}, nil
		},
	}
}

// CorunCell is one cell of the co-run validation matrix: a full 4-core
// shared-LLC simulation (construction, warm-up, alignment, measurement)
// exactly as figures.CoRunMatrix pays it per (mix × LLC size) point.
// Accesses are counted over the measured windows; ns/access therefore
// includes the warm-up overhead, matching the matrix cell's real cost.
func CorunCell() Scenario {
	return Scenario{
		Name: "corun-cell",
		Desc: "4-core shared-LLC co-run simulation, one matrix cell",
		Setup: func(quick bool) (func() uint64, func()) {
			cfg := multiprog.DefaultCoSimConfig()
			if quick {
				cfg.WarmupInstr = 50_000
				cfg.MeasureCycles = 200_000
			}
			profs := []*workload.Profile{
				workload.Mcf(), workload.Lbm(), workload.Omnetpp(), workload.Xalancbmk(),
			}
			return func() uint64 {
				res := multiprog.SimulateCoRun(profs, cfg)
				var n uint64
				for _, a := range res.Apps {
					n += a.Stats.MemAccesses
				}
				return n
			}, nil
		},
	}
}

// CorunCellForked is CorunCell on the checkpoint/fork path: the warm-up
// and alignment are paid once in Setup, snapshotted through the real JSON
// encoding (the store persistence path), and each repetition forks a fresh
// engine from the decoded checkpoint and runs only the measured window —
// the amortized per-cell cost figures.CoRunMatrix pays for every cell of
// a mix after the first. Gated in CI against corun-cell: forking must
// stay decisively cheaper than warming.
func CorunCellForked() Scenario {
	return Scenario{
		Name: "corun-cell-forked",
		Desc: "4-core co-run matrix cell forked from a warmed checkpoint",
		Setup: func(quick bool) (func() uint64, func()) {
			cfg := multiprog.DefaultCoSimConfig()
			if quick {
				cfg.WarmupInstr = 50_000
				cfg.MeasureCycles = 200_000
			}
			profs := []*workload.Profile{
				workload.Mcf(), workload.Lbm(), workload.Omnetpp(), workload.Xalancbmk(),
			}
			cs := multiprog.NewCoSim(profs, cfg)
			cs.WarmAlign()
			raw, err := json.Marshal(cs.Checkpoint())
			if err != nil {
				panic(err)
			}
			var ck multiprog.CoSimCheckpoint
			if err := json.Unmarshal(raw, &ck); err != nil {
				panic(err)
			}
			return func() uint64 {
				forked, err := multiprog.NewCoSimFromCheckpoint(&ck)
				if err != nil {
					panic(err)
				}
				res := forked.RunMeasured()
				var n uint64
				for _, a := range res.Apps {
					n += a.Stats.MemAccesses
				}
				return n
			}, nil
		},
	}
}

// CorunMatrix is the whole co-run figure, end to end: every repetition
// builds a fresh runner engine (empty cache, no store) and drives
// figures.CoRunMatrix over the short mix × size grid — solo profiles,
// warm checkpoints, calibrations, forked simulation cells and the StatCC
// fixed point, scheduled as one saturated job list on a GOMAXPROCS-wide
// pool. This is the number a user-facing `figures` run pays for the §4.2
// table, so the wall-clock of the figure — not of one cell — is what CI
// tracks; the work unit is one matrix cell, so ns/access reads as ns per
// cell (comparable across runs of this scenario, not across scenarios).
// The fresh engine per repetition is deliberate: a warm cache would
// collapse every repetition after the first into pure cache hits and the
// scenario would measure map lookups, not the matrix. Unlike the other
// scenarios, quick mode does NOT shrink the work: the CI gate compares a
// quick run against the full-mode reference in BENCH_after.json, and a
// figure's per-cell wall is not linear in Scale (per-region constants and
// cache floors dominate at high Scale — a Scale-1024 cell measured
// *slower* than Scale-256), so quick and full must run the identical
// matrix for the gate's budget to cover host variance only. Quick mode
// still costs only ~3 repetitions thanks to the duration target.
func CorunMatrix() Scenario {
	return Scenario{
		Name: "corun-matrix",
		Desc: "whole co-run figure through a saturated runner pool (unit: matrix cells)",
		Setup: func(quick bool) (func() uint64, func()) {
			mixes := figures.CoRunMixes(true)
			sizes := figures.CoRunSizes(true)
			cfg := warm.DefaultConfig()
			cfg.Scale = 256
			return func() uint64 {
				eng := runner.New(0)
				cells := figures.CoRunMatrix(eng, mixes, sizes, cfg)
				return uint64(len(cells))
			}, nil
		},
	}
}

// DSEFanout is the §3.3 amortization workload: one Scout + Explorer
// warm-up feeding three Analysts at different LLC sizes, one region per
// repetition. Every Analyst seeks to the warm point the Scout's tracker
// captured, exactly as dse.RunParallel does, so the gap is replayed once
// per region, not once per size.
func DSEFanout() Scenario {
	return Scenario{
		Name: "dse-fanout",
		Desc: "one warm-up region fanned out to 3 Analyst LLC sizes",
		Setup: func(quick bool) (func() uint64, func()) {
			prof := workload.CactusADM()
			cfg := warm.DefaultConfig()
			cfg.Scale = 256
			if quick {
				cfg.Scale = 1024
			}
			sizes := []uint64{1 << 20, 8 << 20, 64 << 20}
			scoutCfg := cfg
			scoutCfg.LLCPaperBytes = sizes[0]
			d := core.New(prof, scoutCfg)

			analysts := make([]*vm.Engine, len(sizes))
			cfgs := make([]warm.Config, len(sizes))
			for i, s := range sizes {
				analysts[i] = vm.NewEngine(prof.NewProgram(cfg.Scale))
				cfgs[i] = cfg
				cfgs[i].LLCPaperBytes = s
			}
			m := 0
			return func() uint64 {
				start := d.MemAccesses()
				for _, e := range analysts {
					start += e.Prog.MemIndex()
				}
				rd := d.ScoutRegion(m)
				for k := range cfg.ExplorerWindows {
					d.ExploreRegion(k, rd)
				}
				records := rd.AllRecords()
				for i, eng := range analysts {
					sizeCfg := cfgs[i]
					eng.Prop = true
					hier := cache.NewHierarchy(sizeCfg.HierConfig(), nil)
					cr := cpu.NewCore(sizeCfg.CPU, hier, nil)
					oracle := warm.NewDSWOracle(records, rd.Vicinity, rd.Assoc, hier)
					if _, err := warm.EvalRegionAt(sizeCfg, eng, rd.WarmPos, cr, oracle); err != nil {
						panic(err)
					}
				}
				m++
				end := d.MemAccesses()
				for _, e := range analysts {
					end += e.Prog.MemIndex()
				}
				return end - start
			}, nil
		},
	}
}

// StoreRoundTrip covers the persistence layer: encode + atomically persist
// + load + integrity-check + decode of representative artifacts (a
// sampled-simulation result with per-region stats and a full counter
// ledger) through the real spec codec and artifact store, exactly the
// cost a warm `figures -store` run pays per cache hit. The work unit is
// one artifact round-trip, so ns/access here means ns per round-trip —
// comparable across runs of this scenario, not across scenarios.
func StoreRoundTrip() Scenario {
	return Scenario{
		Name: "store",
		Desc: "artifact encode/persist/load/decode round-trip (unit: artifacts)",
		Setup: func(quick bool) (func() uint64, func()) {
			keys := 64
			if quick {
				keys = 16
			}
			dir, err := os.MkdirTemp("", "delorean-bench-store-")
			if err != nil {
				panic(err)
			}
			st, err := spec.OpenStore(dir, 0)
			if err != nil {
				panic(err)
			}
			res := syntheticResult()
			return func() uint64 {
				for i := 0; i < keys; i++ {
					key := fmt.Sprintf("%064x", i)
					st.Save(spec.KindSampling, key, res)
					if _, ok := st.Load(spec.KindSampling, key); !ok {
						panic("store: freshly saved artifact missing")
					}
				}
				return uint64(keys)
			}, func() { _ = os.RemoveAll(dir) }
		},
	}
}

// LabdLoad drives the whole service stack under concurrent load: an
// in-process labd (engine + artifact store + HTTP server) takes a batch
// of submissions from the load generator — unique specs, cache-riding
// duplicates, /wait round-trips — per repetition. The work unit is one
// request round-trip, so ns/access here means ns per request; the first
// repetition executes the unique specs, later ones are dominated by the
// dedup/cache path, which is exactly the steady state of a warm daemon.
func LabdLoad() Scenario {
	return Scenario{
		Name: "labd-load",
		Desc: "concurrent spec submissions through a live lab service (unit: requests)",
		Setup: func(quick bool) (func() uint64, func()) {
			requests, unique, clients := 64, 16, 8
			if quick {
				requests, unique, clients = 24, 6, 4
			}
			dir, err := os.MkdirTemp("", "delorean-bench-labd-")
			if err != nil {
				panic(err)
			}
			eng, store, err := lab.NewEngine(0, dir, 0)
			if err != nil {
				panic(err)
			}
			ts := httptest.NewServer(lab.NewServer(eng, store).Handler())
			return func() uint64 {
				rep, err := lab.RunLoad(lab.LoadConfig{
					BaseURL: ts.URL, Requests: requests, Clients: clients, Unique: unique, Seed: 42,
				})
				if err != nil {
					panic(err)
				}
				if rep.Failures > 0 {
					panic(fmt.Sprintf("labd-load: %d failed requests", rep.Failures))
				}
				return uint64(rep.Requests)
			}, func() { ts.Close(); _ = os.RemoveAll(dir) }
		},
	}
}

// FleetLoad is the scale-out steady state: a 3-node in-process labd fleet
// serves a warmed co-run matrix to round-robin clients. Setup warms the
// matrix through the fleet (rendezvous routing decides which node executes
// each cell) and then enforces the fleet's central invariant before any
// measurement happens: summed per-node execution counters must equal the
// number of unique spec keys — zero duplicate executions fleet-wide — and
// a full resubmit of every cell to every node must add no executions while
// moving artifacts between nodes over the peer fetch tier. The measured
// step is pure cache-hit traffic across all three nodes, so ns/access
// reads as ns per fleet request round-trip; on a multi-core host this is
// where the near-N× aggregate submit throughput shows up, while on the
// 1-CPU CI runner the gate tracks the per-request cost of the fleet path
// (rendezvous + ledger/cache hit) staying flat.
func FleetLoad() Scenario {
	return Scenario{
		Name: "fleet",
		Desc: "3-node labd fleet serving a warmed co-run matrix (unit: requests)",
		Setup: func(quick bool) (func() uint64, func()) {
			requests, clients := 96, 6
			if quick {
				requests = 48
			}

			// The matrix: the short co-run grid at a cheap scale. Collect
			// every key the forked execution path touches — each corun-sim
			// cell plus its mix's nested corun-warm checkpoint — since the
			// zero-duplicate invariant counts nested executions too.
			cfg := warm.DefaultConfig()
			cfg.Scale = 1024
			var bodies [][]byte
			unique := map[string]bool{}
			for _, mix := range figures.CoRunMixes(true) {
				for _, size := range figures.CoRunSizes(true) {
					c := cfg
					c.LLCPaperBytes = size
					apps := make([]spec.BenchRef, len(mix.Apps))
					for i, p := range mix.Apps {
						apps[i] = spec.BenchRef{Name: p.Name}
					}
					sp, err := spec.New(spec.CoRunSimParams{Mix: mix.Name, Apps: apps, Cfg: c})
					if err != nil {
						panic(err)
					}
					body, err := json.Marshal(sp)
					if err != nil {
						panic(err)
					}
					bodies = append(bodies, body)
					unique[sp.Key()] = true
					wsp, err := spec.New(spec.CoRunWarmParams{Mix: mix.Name, Apps: apps, Cfg: c})
					if err != nil {
						panic(err)
					}
					unique[wsp.Key()] = true
				}
			}

			dir, err := os.MkdirTemp("", "delorean-bench-fleet-")
			if err != nil {
				panic(err)
			}
			fl, err := lab.StartLocalFleet(3, lab.LocalFleetOptions{
				StoreDir: func(i int) string { return filepath.Join(dir, fmt.Sprintf("node%d", i)) },
			})
			if err != nil {
				_ = os.RemoveAll(dir)
				panic(err)
			}
			cleanup := func() { fl.Close(); _ = os.RemoveAll(dir) }

			// Warm pass: each cell submitted once, round-robin. Non-owner
			// nodes proxy-wait on the rendezvous owner, so each cell (and
			// each nested warm checkpoint) executes on exactly one node.
			urls := fl.URLs()
			for i, body := range bodies {
				if err := submitAndWait(urls[i%len(urls)], body); err != nil {
					cleanup()
					panic(fmt.Sprintf("fleet: warm pass: %v", err))
				}
			}
			if got, want := fl.Executions(), uint64(len(unique)); got != want {
				cleanup()
				panic(fmt.Sprintf("fleet: duplicate executions during warm: %d executions fleet-wide for %d unique specs", got, want))
			}

			// Resubmit every cell to every node: results must flow over the
			// peer fetch tier, never re-execute.
			for _, body := range bodies {
				for _, u := range urls {
					if err := submitAndWait(u, body); err != nil {
						cleanup()
						panic(fmt.Sprintf("fleet: resubmit pass: %v", err))
					}
				}
			}
			if got, want := fl.Executions(), uint64(len(unique)); got != want {
				cleanup()
				panic(fmt.Sprintf("fleet: resubmit re-executed work: %d executions for %d unique specs", got, want))
			}
			var peerHits uint64
			for _, n := range fl.Nodes {
				if p := n.Store.Peers(); p != nil {
					peerHits += p.Stats().Hits
				}
			}
			if peerHits == 0 {
				cleanup()
				panic("fleet: no peer fetch hits — artifacts did not move between nodes")
			}

			return func() uint64 {
				rep, err := lab.RunLoad(lab.LoadConfig{
					BaseURLs: urls, Bodies: bodies, Requests: requests, Clients: clients, Seed: 42,
				})
				if err != nil {
					panic(err)
				}
				if rep.Failures > 0 {
					panic(fmt.Sprintf("fleet: %d failed requests", rep.Failures))
				}
				if rep.Fleet != nil && rep.Fleet.Executions > 0 {
					panic(fmt.Sprintf("fleet: %d executions during cache-hit steady state", rep.Fleet.Executions))
				}
				return uint64(rep.Requests)
			}, cleanup
		},
	}
}

// submitAndWait posts one spec body and blocks until the job is done —
// the warm-pass primitive of the fleet scenario.
func submitAndWait(base string, body []byte) error {
	resp, err := http.Post(base+"/v1/specs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var st lab.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if st.Key == "" {
		return fmt.Errorf("submit to %s: no job key", base)
	}
	resp, err = http.Get(base + "/v1/jobs/" + st.Key + "/wait")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("wait on %s: status %d", base, resp.StatusCode)
	}
	var fin lab.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&fin); err != nil {
		return err
	}
	if fin.State != lab.StateDone {
		return fmt.Errorf("job on %s ended %s: %s", base, fin.State, fin.Error)
	}
	return nil
}

// syntheticResult builds a paper-shaped sampling artifact: 10 regions of
// detailed stats plus a realistic counter ledger.
func syntheticResult() *warm.Result {
	r := &warm.Result{Bench: "synthetic", Method: "SMARTS", Counters: stats.NewCounters()}
	rng := stats.NewRNG(7)
	for m := 0; m < 10; m++ {
		r.Regions = append(r.Regions, warm.RegionResult{
			Start: uint64(m+1) * 1_000_000,
			Stats: cpu.Stats{
				Instructions: 10_000, Cycles: 8_000 + rng.Uint64n(4_000),
				MemAccesses: 3_500, L1DHits: 3_200, MSHRHits: 60,
				LLCHits: 120, MemServed: 120, BrLookups: 1_800, BrMispred: 90,
			},
			LLCMisses: rng.Uint64n(200),
		})
	}
	for i := 0; i < 24; i++ {
		r.Counters.Add(fmt.Sprintf("win/synthetic_%02d", i), float64(rng.Uint64n(1<<32)))
	}
	return r
}

// KeyReuse is the directed-profiling loop in isolation: a Scout pass picks
// the key cachelines of a detailed region, then an Explorer pass runs
// virtualized directed profiling over the window before it — page-grained
// watchpoint checks on every access, key-reuse collection, sparse vicinity
// sampling. The watchpoint set is reused (Clear) across repetitions, as
// the Explorer reuses it across regions.
func KeyReuse() Scenario {
	return Scenario{
		Name: "key-reuse",
		Desc: "Scout key extraction + Explorer VDP window over armed watchpoints",
		Setup: func(quick bool) (func() uint64, func()) {
			prof := workload.Zeusmp()
			cfg := warm.DefaultConfig()
			cfg.Scale = 256
			if quick {
				cfg.Scale = 1024
			}
			scout := vm.NewEngine(prof.NewProgram(cfg.Scale))
			exp := vm.NewEngine(prof.NewProgram(cfg.Scale))
			wps := vm.NewWatchpoints()
			window := cfg.Gap() / 8
			vicinityEvery := cfg.VicinityInterval()
			var region mem.Batch
			m := 0
			return func() uint64 {
				start := scout.Prog.MemIndex() + exp.Prog.MemIndex()
				regionStart := cfg.RegionStart(m)
				m++

				// Scout: first-touch unique lines of the detailed region.
				scout.Prog.Skip(regionStart - scout.Prog.InstrIndex())
				var keys []reuse.KeySpec
				var seen mem.FlatSet[mem.Line]
				seen.Grow(256)
				region.Reset()
				scout.RunFuncBatch(cfg.RegionLen, false, &region)
				for i := range region {
					if l := region[i].Line(); seen.Add(l) {
						keys = append(keys, reuse.KeySpec{Line: l, FirstMem: region[i].MemIdx})
					}
				}

				// Explorer: VDP over the window before the region with all
				// key watchpoints armed for the whole span.
				exp.Prog.Skip(regionStart - window - exp.Prog.InstrIndex())
				for _, ks := range keys {
					wps.Watch(ks.Line)
				}
				collector := reuse.NewKeyCollector(keys)
				var keySet mem.FlatSet[mem.Line]
				keySet.Grow(len(keys))
				for _, ks := range keys {
					keySet.Add(ks.Line)
				}
				sampler := reuse.NewForwardSampler(float64(vicinityEvery), false)
				exp.RunVDP(window, &vm.VDPConfig{
					WPs:           wps,
					TriggersFixed: true,
					SampleEvery:   vicinityEvery,
					OnSample: func(a *mem.Access) {
						if sampler.Start(a) {
							wps.Watch(a.Line())
						}
					},
					OnTrigger: func(a *mem.Access) {
						l := a.Line()
						isKey := keySet.Has(l)
						if isKey {
							collector.Observe(a)
						}
						if sampler.Complete(a) && !isKey {
							wps.Unwatch(l)
						}
					},
				})
				sampler.AbandonPending(true)
				collector.Finalize(1)
				wps.Clear()
				return scout.Prog.MemIndex() + exp.Prog.MemIndex() - start
			}, nil
		},
	}
}
